#ifndef TGSIM_BASELINES_NETGAN_H_
#define TGSIM_BASELINES_NETGAN_H_

#include <vector>

#include "baselines/state_io.h"
#include "config/param_map.h"

namespace tgsim::baselines {

struct NetGanConfig {
  int rank = 16;
  int epochs = 60;
  double learning_rate = 5e-2;
  /// Stored score entries per row (0 = keep every positive entry — the
  /// paper-exact default; preset=fast truncates). See ScoreStore.
  int64_t score_topk = 0;

  void DefineParams(config::ParamBinder& binder);
  Status ApplyParams(const config::ParamMap& params);
  static config::ParamSchema Schema();
};

/// NetGAN (Bojchevski et al., ICML'18), in the low-rank formulation of
/// Rendsburg et al. ("NetGAN without GAN", ICML'20 — reference [45] of the
/// paper): the adversarially-trained walk LSTM is provably equivalent to a
/// low-rank logit factorization of the random-walk transition matrix. We fit
/// logits = U V^T per snapshot by gradient descent on the row-wise cross
/// entropy against the observed transition distribution, then sample edges
/// from the stationary-weighted edge scores. Being a static method, it is
/// applied independently to every timestamp (paper Section V.B). Fit()
/// trains every snapshot model and keeps only the resulting sparse score
/// rows — the fitted distributions — so Generate() is a cheap sampling
/// pass and the whole state ships through SaveState/LoadState.
class NetGanGenerator : public ScoreMatrixGenerator {
 public:
  explicit NetGanGenerator(NetGanConfig config = {});

  std::string name() const override { return "NetGAN"; }

  /// Dense n x n score matrix per trained snapshot + per-timestamp walk
  /// buffers; reproduces the paper's OOM pattern (BITCOIN-* and UBUNTU out,
  /// MATH/EMAIL in). Models the *original* implementation — this
  /// reproduction's sparse store stays O(nnz).
  int64_t EstimatePaperMemoryBytes(int64_t n, int64_t /*m*/,
                                   int64_t t) const override {
    return 8 * n * n + 8 * n * t * t;
  }

 private:
  /// Fits the low-rank transition model for one snapshot and returns the
  /// active-node score submatrix.
  SnapshotScores FitSnapshotScores(
      const std::vector<graphs::TemporalEdge>& edges,
      Rng& rng) const override;

  NetGanConfig config_;
};

}  // namespace tgsim::baselines

#endif  // TGSIM_BASELINES_NETGAN_H_
