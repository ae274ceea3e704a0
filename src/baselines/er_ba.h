#ifndef TGSIM_BASELINES_ER_BA_H_
#define TGSIM_BASELINES_ER_BA_H_

#include "baselines/state_io.h"

namespace tgsim::baselines {

/// Erdős–Rényi baseline: each snapshot is G(n, m_t) with the observed
/// per-timestamp edge count (paper's "E-R" column). Model-based, not
/// learning-based.
class ErdosRenyiGenerator : public ShapeOnlyGenerator {
 public:
  std::string name() const override { return "E-R"; }
  graphs::TemporalGraph Generate(Rng& rng) const override;
  int64_t EstimatePaperMemoryBytes(int64_t /*n*/, int64_t /*m*/,
                                   int64_t /*t*/) const override {
    return 0;  // CPU-only in the paper's setup; no GPU footprint.
  }
};

/// Barabási–Albert baseline: per-snapshot preferential attachment with the
/// observed edge budget (paper's "B-A" column). The endpoint multiset is
/// carried across timestamps so the accumulated graph keeps a power-law
/// degree profile.
class BarabasiAlbertGenerator : public ShapeOnlyGenerator {
 public:
  std::string name() const override { return "B-A"; }
  graphs::TemporalGraph Generate(Rng& rng) const override;
  int64_t EstimatePaperMemoryBytes(int64_t /*n*/, int64_t /*m*/,
                                   int64_t /*t*/) const override {
    return 0;
  }
};

}  // namespace tgsim::baselines

#endif  // TGSIM_BASELINES_ER_BA_H_
