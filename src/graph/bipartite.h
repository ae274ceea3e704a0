#ifndef TGSIM_GRAPH_BIPARTITE_H_
#define TGSIM_GRAPH_BIPARTITE_H_

#include <vector>

#include "graph/ego_sampler.h"

namespace tgsim::graphs {

/// One bipartite computation graph: edges from source nodes in layer l+1 to
/// target nodes in layer l (paper Fig. 4). Indices point into the
/// BipartiteStack's layer node lists.
struct BipartiteLayer {
  std::vector<int> src;
  std::vector<int> dst;

  size_t num_edges() const { return src.size(); }
};

/// The k-bipartite computation graph stack built by merging a batch of
/// ego-graphs (paper Section IV.C, "Parallel Ego-graph Training").
///
/// layer_nodes[0] holds the ego-graph centers (set S_0); layer_nodes[l]
/// holds the deduplicated l-order neighborhood union S_l. Self-edges are
/// inserted so information at layer l survives to layer l-1 (the paper adds
/// self-loops to all temporal nodes), which requires S_{l} to also contain
/// every node of S_{l-1}: S_l is a prefix of S_{l+1}, so node i of S_l is
/// node i of S_{l+1} and its self-loop in layers[l] is the edge (i, i).
struct BipartiteStack {
  std::vector<std::vector<TemporalNodeRef>> layer_nodes;  // size k+1
  std::vector<BipartiteLayer> layers;                     // size k
  /// center_index[i] = index of ego i's center inside layer_nodes[0].
  std::vector<int> center_index;

  int radius() const { return static_cast<int>(layers.size()); }
};

/// Merges a batch of ego-graphs into the layered bipartite representation.
/// The bottom layer (S_k) feeds the first TGAT layer; messages flow
/// S_k -> S_{k-1} -> ... -> S_0.
BipartiteStack BuildBipartiteStack(const std::vector<EgoGraph>& egos,
                                   int radius);

}  // namespace tgsim::graphs

#endif  // TGSIM_GRAPH_BIPARTITE_H_
