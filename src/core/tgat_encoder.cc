#include "core/tgat_encoder.h"

namespace tgsim::core {

TgatLayer::TgatLayer(Rng& rng, int in_dim, int out_dim, int num_heads)
    : out_dim_(out_dim), num_heads_(num_heads) {
  TGSIM_CHECK_GE(num_heads, 1);
  head_dim_ = std::max(1, out_dim / num_heads);
  for (int h = 0; h < num_heads_; ++h) {
    w_head_.push_back(
        AddParam(nn::Tensor::GlorotUniform(rng, in_dim, head_dim_)));
    a_head_.push_back(
        AddParam(nn::Tensor::GlorotUniform(rng, 2 * head_dim_, 1)));
  }
  w_out_ = AddParam(
      nn::Tensor::GlorotUniform(rng, num_heads_ * head_dim_, out_dim));
}

nn::Var TgatLayer::Forward(const nn::Var& src_feats,
                           const graphs::BipartiteLayer& edges,
                           int n_dst) const {
  TGSIM_CHECK(!edges.src.empty());
  // All head projections in one blocked matmul against the concatenated
  // head weights; per-head views are column slices. Column j of the batched
  // product is the same dot products in the same order as the per-head
  // matmul, so head outputs are bit-identical to the unbatched form. The
  // concat node is rebuilt per forward pass so its grad buffer is fresh.
  nn::Var proj_all =
      num_heads_ == 1
          ? nn::MatMul(src_feats, w_head_[0])
          : nn::MatMul(src_feats, nn::ConcatCols(w_head_));
  std::vector<nn::Var> heads;
  heads.reserve(static_cast<size_t>(num_heads_));
  for (int h = 0; h < num_heads_; ++h) {
    nn::Var proj = num_heads_ == 1
                       ? proj_all
                       : nn::SliceCols(proj_all, h * head_dim_,
                                       (h + 1) * head_dim_);
    // Queries: the target node's own projection (target i is source i —
    // the paper's self-loops).
    nn::Var hs = nn::GatherRows(proj, edges.src);
    nn::Var hd = nn::GatherRows(proj, edges.dst);
    nn::Var scores = nn::LeakyRelu(
        nn::MatMul(nn::ConcatCols({hs, hd}), a_head_[static_cast<size_t>(h)]),
        0.2);
    nn::Var alpha = nn::SegmentSoftmax(scores, edges.dst, n_dst);
    nn::Var agg =
        nn::SegmentSum(nn::MulColBroadcast(hs, alpha), edges.dst, n_dst);
    heads.push_back(nn::LeakyRelu(agg, 0.2));
  }
  nn::Var cat = heads.size() == 1 ? heads[0] : nn::ConcatCols(heads);
  return nn::MatMul(cat, w_out_);
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
