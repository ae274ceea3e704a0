#ifndef TGSIM_BASELINES_SBMGNN_H_
#define TGSIM_BASELINES_SBMGNN_H_

#include <vector>

#include "baselines/state_io.h"
#include "config/param_map.h"

namespace tgsim::baselines {

struct SbmGnnConfig {
  int hidden_dim = 32;
  int num_blocks = 8;
  int epochs = 40;
  double learning_rate = 1e-2;
  /// Stored score entries per row (0 = keep every positive entry — the
  /// paper-exact default; preset=fast truncates). See ScoreStore.
  int64_t score_topk = 0;

  void DefineParams(config::ParamBinder& binder);
  Status ApplyParams(const config::ParamMap& params);
  static config::ParamSchema Schema();
};

/// SBMGNN (Mehta, Duke & Rai, ICML'19): stochastic blockmodels parameterized
/// by a graph neural network. This reproduction keeps the skeleton: a GCN
/// encoder infers soft overlapping block memberships Phi per node, a
/// learnable block affinity matrix B couples blocks, and the decoded edge
/// probability is sigmoid(Phi B Phi^T). Static method, applied per snapshot
/// like VGAE.
class SbmGnnGenerator : public ScoreMatrixGenerator {
 public:
  explicit SbmGnnGenerator(SbmGnnConfig config = {});

  std::string name() const override { return "SBMGNN"; }

  int64_t EstimatePaperMemoryBytes(int64_t n, int64_t /*m*/,
                                   int64_t /*t*/) const override {
    return 8 * n * n;  // Dense reconstruction, like VGAE (original impl).
  }

 private:
  SnapshotScores FitSnapshotScores(
      const std::vector<graphs::TemporalEdge>& edges,
      Rng& rng) const override;

  SbmGnnConfig config_;
};

}  // namespace tgsim::baselines

#endif  // TGSIM_BASELINES_SBMGNN_H_
