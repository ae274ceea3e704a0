#ifndef TGSIM_BASELINES_DYMOND_H_
#define TGSIM_BASELINES_DYMOND_H_

#include <vector>

#include "baselines/generator.h"
#include "sampling/samplers.h"

namespace tgsim::baselines {

/// DYMOND (Zeno, La Fond & Neville, WWW'21): a dynamic motif-based
/// generative model. This reproduction keeps the algorithmic skeleton: per
/// timestamp it estimates how much of the snapshot's edge mass comes from
/// triangle motifs, wedge motifs and isolated edges, learns per-node
/// activity rates, and regenerates snapshots by placing whole motifs drawn
/// from those rates. The original's O(n^3 T) node-triple parameterization is
/// what blows memory at paper scale (see EstimatePaperMemoryBytes).
class DymondGenerator : public TemporalGraphGenerator {
 public:
  std::string name() const override { return "DYMOND"; }
  void Fit(const graphs::TemporalGraph& observed, Rng& rng) override;
  graphs::TemporalGraph Generate(Rng& rng) override;
  Status Update(const graphs::TemporalGraph& delta, Rng& rng) override;
  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;
  int64_t ResidentStateBytes() const override;

  /// The original parameterizes node triples: ~n^3 motif-rate entries.
  /// Coefficient calibrated so the paper's OOM pattern on a 32 GB device
  /// is reproduced (runs DBLP/MSG/EMAIL, OOMs MATH/BITCOIN-*/UBUNTU).
  int64_t EstimatePaperMemoryBytes(int64_t n, int64_t /*m*/,
                                   int64_t /*t*/) const override {
    return 2 * n * n * n;
  }

 private:
  /// Rebuilds activity_alias_ from node_activity_ (shared by Fit, Update
  /// and LoadState, so a loaded sampler is bit-identical to the fitted
  /// one).
  void RebuildActivitySampler();

  ObservedShape shape_;
  /// Per-timestamp motif mix: how many triangles / wedges / single edges
  /// to place (fitted from the observed snapshots).
  struct MotifMix {
    int64_t triangles = 0;
    int64_t wedges = 0;
    int64_t singles = 0;
  };
  /// Splits one snapshot's edge budget `m_t` into motif placements
  /// (shared by Fit and the per-delta-snapshot half of Update).
  static MotifMix EstimateMix(const graphs::StaticGraph& snap, int64_t m_t);
  std::vector<MotifMix> mix_;
  std::vector<double> node_activity_;  // Degree-based placement weights.
  /// O(1) node draws over node_activity_ — every motif placement during
  /// generation goes through this table.
  sampling::AliasTable activity_alias_;
};

}  // namespace tgsim::baselines

#endif  // TGSIM_BASELINES_DYMOND_H_
