#ifndef TGSIM_NN_OPTIM_H_
#define TGSIM_NN_OPTIM_H_

#include <vector>

#include "nn/autograd.h"

namespace tgsim::nn {

/// Adam (Kingma & Ba) over a fixed parameter set — the optimizer used for
/// TGAE and all learned baselines in this reproduction.
class Adam {
 public:
  Adam(std::vector<Var> params, Scalar lr = 1e-3, Scalar beta1 = 0.9,
       Scalar beta2 = 0.999, Scalar eps = 1e-8);

  /// Applies one update using the gradients currently stored on the params.
  void Step();

  /// Clears all parameter gradients (call before each Backward).
  void ZeroGrad();

  /// Clips the global gradient norm to `max_norm` (no-op if under it).
  void ClipGradNorm(Scalar max_norm);

 private:
  std::vector<Var> params_;
  Scalar lr_, beta1_, beta2_, eps_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace tgsim::nn

#endif  // TGSIM_NN_OPTIM_H_
