#include <cmath>
#include "nn/layers.h"

namespace tgsim::nn {

int64_t Module::NumParams() const {
  int64_t n = 0;
  for (const Var& p : params_) n += p.value().size();
  return n;
}

Linear::Linear(Rng& rng, int in_features, int out_features, bool bias)
    : has_bias_(bias) {
  w_ = AddParam(Tensor::GlorotUniform(rng, in_features, out_features));
  if (has_bias_) b_ = AddParam(Tensor::Zeros(1, out_features));
}

Var Linear::Forward(const Var& x) const {
  return has_bias_ ? Affine(x, w_, b_) : MatMul(x, w_);
}

Var Activate(const Var& x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return Relu(x);
    case Activation::kTanh:
      return Tanh(x);
    case Activation::kSigmoid:
      return Sigmoid(x);
    case Activation::kLeakyRelu:
      return LeakyRelu(x);
    case Activation::kIdentity:
      return x;
  }
  TGSIM_CHECK(false);
  return x;
}

Mlp::Mlp(Rng& rng, const std::vector<int>& dims, Activation act,
         bool final_activation)
    : act_(act), final_activation_(final_activation) {
  TGSIM_CHECK_GE(dims.size(), 2u);
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(rng, dims[i], dims[i + 1]);
    AbsorbParams(layers_.back());
  }
}

Var Mlp::Forward(const Var& x) const {
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    bool is_last = (i + 1 == layers_.size());
    if (!is_last || final_activation_) h = Activate(h, act_);
  }
  return h;
}

int Mlp::out_features() const { return layers_.back().out_features(); }

Embedding::Embedding(Rng& rng, int num_embeddings, int dim) {
  weight_ = AddParam(
      Tensor::Randn(rng, num_embeddings, dim, 1.0 / std::sqrt(dim)));
}

Var Embedding::Forward(const std::vector<int>& indices) const {
  return GatherRows(weight_, indices);
}

GruCell::GruCell(Rng& rng, int input_dim, int hidden_dim)
    : hidden_dim_(hidden_dim) {
  wz_ = AddParam(Tensor::GlorotUniform(rng, input_dim, hidden_dim));
  uz_ = AddParam(Tensor::GlorotUniform(rng, hidden_dim, hidden_dim));
  bz_ = AddParam(Tensor::Zeros(1, hidden_dim));
  wr_ = AddParam(Tensor::GlorotUniform(rng, input_dim, hidden_dim));
  ur_ = AddParam(Tensor::GlorotUniform(rng, hidden_dim, hidden_dim));
  br_ = AddParam(Tensor::Zeros(1, hidden_dim));
  wh_ = AddParam(Tensor::GlorotUniform(rng, input_dim, hidden_dim));
  uh_ = AddParam(Tensor::GlorotUniform(rng, hidden_dim, hidden_dim));
  bh_ = AddParam(Tensor::Zeros(1, hidden_dim));
}

Var GruCell::Forward(const Var& x, const Var& h) const {
  Var z = Sigmoid(Add(Add(MatMul(x, wz_), MatMul(h, uz_)), bz_));
  Var r = Sigmoid(Add(Add(MatMul(x, wr_), MatMul(h, ur_)), br_));
  Var h_cand = Tanh(Add(Add(MatMul(x, wh_), MatMul(Mul(r, h), uh_)), bh_));
  // h' = (1-z)*h + z*h_cand
  Var one_minus_z = AddScalar(Scale(z, -1.0), 1.0);
  return Add(Mul(one_minus_z, h), Mul(z, h_cand));
}

Var GruCell::InitialState(int batch) const {
  return Var::Constant(Tensor::Zeros(batch, hidden_dim_));
}

}  // namespace tgsim::nn
