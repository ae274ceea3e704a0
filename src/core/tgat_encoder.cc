#include "core/tgat_encoder.h"

namespace tgsim::core {

TgatLayer::TgatLayer(Rng& rng, int in_dim, int out_dim, int num_heads)
    : out_dim_(out_dim), num_heads_(num_heads) {
  TGSIM_CHECK_GE(num_heads, 1);
  const int head_dim = std::max(1, out_dim / num_heads);
  for (int h = 0; h < num_heads_; ++h) {
    w_head_.push_back(
        AddParam(nn::Tensor::GlorotUniform(rng, in_dim, head_dim)));
    a_head_.push_back(
        AddParam(nn::Tensor::GlorotUniform(rng, 2 * head_dim, 1)));
  }
  w_out_ = AddParam(
      nn::Tensor::GlorotUniform(rng, num_heads_ * head_dim, out_dim));
}

nn::Var TgatLayer::Forward(const nn::Var& src_feats,
                           const graphs::BipartiteLayer& edges,
                           int n_dst) const {
  TGSIM_CHECK(!edges.src.empty());
  // All head projections in one blocked matmul against the concatenated
  // head weights: column j of the batched product is the same dot products
  // in the same order as head j's own matmul. The concat node is rebuilt
  // per forward pass so its grad buffer is fresh.
  nn::Var proj = num_heads_ == 1
                     ? nn::MatMul(src_feats, w_head_[0])
                     : nn::MatMul(src_feats, nn::ConcatCols(w_head_));
  // Queries are the targets' own projections (target i is source i: the
  // paper's self-loops). The op writes each head's LeakyReLU'd aggregate
  // into its columns of the concatenated head output.
  nn::Var heads = nn::GraphAttention(proj, a_head_, edges.src, edges.dst,
                                     n_dst, 0.2);
  return nn::MatMul(heads, w_out_);
}

TgatEncoder::TgatEncoder(Rng& rng, int input_dim, int hidden_dim,
                         int num_heads, int radius)
    : hidden_dim_(hidden_dim) {
  TGSIM_CHECK_GE(radius, 1);
  // layers_[l] maps S_{l+1} features to S_l features; the outermost layer
  // (l = radius-1) consumes the raw input features of S_k.
  for (int l = 0; l < radius; ++l) {
    int in = l == radius - 1 ? input_dim : hidden_dim;
    layers_.push_back(
        std::make_unique<TgatLayer>(rng, in, hidden_dim, num_heads));
    AbsorbParams(*layers_.back());
  }
}

nn::Var TgatEncoder::Forward(const graphs::BipartiteStack& stack,
                             const nn::Var& sk_feats) const {
  const int k = stack.radius();
  TGSIM_CHECK_EQ(static_cast<int>(layers_.size()), k);
  // Start from the periphery (S_k) and move inward (paper: messages pass
  // from peripheral nodes to the central node).
  nn::Var h = sk_feats;
  for (int l = k - 1; l >= 0; --l) {
    h = layers_[static_cast<size_t>(l)]->Forward(
        h, stack.layers[static_cast<size_t>(l)],
        static_cast<int>(stack.layer_nodes[static_cast<size_t>(l)].size()));
  }
  return h;  // Features of S_0.
}

}  // namespace tgsim::core
