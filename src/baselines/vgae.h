#ifndef TGSIM_BASELINES_VGAE_H_
#define TGSIM_BASELINES_VGAE_H_

#include <vector>

#include "baselines/state_io.h"
#include "config/param_map.h"

namespace tgsim::baselines {

struct VgaeConfig {
  int hidden_dim = 32;
  int latent_dim = 16;
  int epochs = 40;
  double learning_rate = 1e-2;
  double kl_weight = 1e-2;
  /// Graphite decoder refinement rounds (used by GraphiteGenerator only).
  int refine_rounds = 1;
  /// Stored score entries per row (0 = keep every positive entry — the
  /// paper-exact default; preset=fast truncates). See ScoreStore.
  int64_t score_topk = 0;

  void DefineParams(config::ParamBinder& binder);
  Status ApplyParams(const config::ParamMap& params);
  static config::ParamSchema Schema();
};

/// VGAE (Kipf & Welling, 2016): per-snapshot variational graph autoencoder
/// with a two-layer GCN encoder (identity features, so the first layer
/// reduces to A_hat W1) and an inner-product decoder. Static method: trained
/// and sampled independently per timestamp (paper Section V.B). Fit()
/// trains every snapshot and keeps the decoded score matrices as the
/// complete fitted state, so Generate() is a sampling pass and the model
/// ships through SaveState/LoadState.
class VgaeGenerator : public ScoreMatrixGenerator {
 public:
  explicit VgaeGenerator(VgaeConfig config = {});

  std::string name() const override { return "VGAE"; }
  const VgaeConfig& config() const { return config_; }

  /// Dense n x n adjacency + reconstruction per snapshot: the classic
  /// VGAE memory wall (only UBUNTU exceeds 32 GB at paper scale). Models
  /// the *original* implementation — this reproduction stays O(nnz).
  int64_t EstimatePaperMemoryBytes(int64_t n, int64_t /*m*/,
                                   int64_t /*t*/) const override {
    return 8 * n * n;
  }

 protected:
  /// Graphite shares Fit/Generate and flips only the decoder refinement.
  VgaeGenerator(VgaeConfig config, bool graphite);

 private:
  /// Trains on one snapshot and returns the active-node score submatrix.
  /// `graphite_` switches the decoder to the iterative Graphite variant.
  SnapshotScores FitSnapshotScores(
      const std::vector<graphs::TemporalEdge>& edges,
      Rng& rng) const override;

  VgaeConfig config_;
  bool graphite_ = false;
};

/// Graphite (Grover et al., ICML'19): VGAE with an iteratively refined
/// decoder — the latent codes are propagated through the (soft) decoded
/// adjacency before the final inner product.
class GraphiteGenerator : public VgaeGenerator {
 public:
  explicit GraphiteGenerator(VgaeConfig config = {});

  std::string name() const override { return "Graphite"; }
};

}  // namespace tgsim::baselines

#endif  // TGSIM_BASELINES_VGAE_H_
