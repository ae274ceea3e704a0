#include "nn/optim.h"

#include <cmath>

#include "nn/kernels.h"
#include "parallel/parallel_for.h"

namespace tgsim::nn {

void Adam::ZeroGrad() {
  for (Var& p : params_) p.ZeroGrad();
}

void Adam::ClipGradNorm(Scalar max_norm) {
  Scalar total_sq = 0.0;
  for (Var& p : params_) {
    if (p.grad().SameShape(p.value())) {
      Scalar n = p.grad().Norm();
      total_sq += n * n;
    }
  }
  Scalar total = std::sqrt(total_sq);
  if (total > max_norm && total > 0.0) {
    Scalar scale = max_norm / total;
    for (Var& p : params_) {
      if (p.grad().SameShape(p.value())) p.mutable_grad().ScaleInPlace(scale);
    }
  }
}

Adam::Adam(std::vector<Var> params, Scalar lr, Scalar beta1, Scalar beta2,
           Scalar eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Var& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::Step() {
  ++t_;
  Scalar bias1 = 1.0 - std::pow(beta1_, static_cast<Scalar>(t_));
  Scalar bias2 = 1.0 - std::pow(beta2_, static_cast<Scalar>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Var& p = params_[i];
    if (!p.grad().SameShape(p.value())) continue;
    const Tensor& g = p.grad();
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    Tensor& x = p.mutable_value();
    parallel::ParallelFor(
        0, g.size(), parallel::kElementwiseGrain,
        [&](int64_t b, int64_t e) {
          kernels::AdamRow(x.data() + b, m.data() + b, v.data() + b,
                           g.data() + b, beta1_, 1.0 - beta1_, beta2_,
                           1.0 - beta2_, bias1, bias2, lr_, eps_,
                           static_cast<int>(e - b));
        });
  }
}

}  // namespace tgsim::nn
