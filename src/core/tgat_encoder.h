#ifndef TGSIM_CORE_TGAT_ENCODER_H_
#define TGSIM_CORE_TGAT_ENCODER_H_

#include <memory>
#include <vector>

#include "graph/bipartite.h"
#include "nn/layers.h"

namespace tgsim::core {

/// One multi-head temporal graph attention layer (paper Eq. 3–5).
///
/// Messages flow over a bipartite computation graph from source nodes
/// (layer l+1 of the stack) to target nodes (layer l). Per head i the edge
/// importance is alpha_i = segment-softmax(LeakyReLU(a_i^T [h_src || h_dst]))
/// normalized over each target's incoming edges, and the head output is
/// sigma(sum alpha_i * W_i h_src). Heads are concatenated and projected
/// with W_o.
class TgatLayer : public nn::Module {
 public:
  TgatLayer(Rng& rng, int in_dim, int out_dim, int num_heads);

  /// `src_feats`: features of the source layer (S_{l+1}).
  /// `edges`: bipartite edges (src index into src layer, dst index into
  ///   target layer).
  /// `n_dst`: size of the target layer (S_l). S_l is a prefix of S_{l+1},
  ///   so target node i is source node i, whose projection is its
  ///   attention query.
  /// Returns target-layer features [n_dst x out_dim].
  nn::Var Forward(const nn::Var& src_feats,
                  const graphs::BipartiteLayer& edges, int n_dst) const;

  int out_dim() const { return out_dim_; }

 private:
  int out_dim_;
  int num_heads_;
  int head_dim_;
  std::vector<nn::Var> w_head_;  // per head: in_dim x head_dim
  std::vector<nn::Var> a_head_;  // per head: 2*head_dim x 1
  nn::Var w_out_;                // heads*head_dim x out_dim
};

/// The stacked k-layer TGAT encoder: consumes a bipartite stack plus input
/// features per layer and produces hidden variables for the center set S_0
/// (paper Section IV.C, Fig. 4).
class TgatEncoder : public nn::Module {
 public:
  TgatEncoder(Rng& rng, int input_dim, int hidden_dim, int num_heads,
              int radius);

  /// `sk_feats` holds input features of the outermost layer S_k
  /// (stack.layer_nodes[k]); every inner layer's features are produced by
  /// attention. Returns hidden variables of S_0 [|S_0| x hidden_dim].
  nn::Var Forward(const graphs::BipartiteStack& stack,
                  const nn::Var& sk_feats) const;

  int radius() const { return static_cast<int>(layers_.size()); }
  int hidden_dim() const { return hidden_dim_; }

 private:
  int hidden_dim_;
  std::vector<std::unique_ptr<TgatLayer>> layers_;
};

}  // namespace tgsim::core

#endif  // TGSIM_CORE_TGAT_ENCODER_H_
