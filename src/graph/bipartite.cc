#include "graph/bipartite.h"

#include <algorithm>
#include <utility>

#include "graph/temporal_node_index.h"

namespace tgsim::graphs {

BipartiteStack BuildBipartiteStack(const std::vector<EgoGraph>& egos,
                                   int radius) {
  TGSIM_CHECK_GE(radius, 1);
  BipartiteStack stack;
  stack.layer_nodes.resize(static_cast<size_t>(radius) + 1);
  stack.layers.resize(static_cast<size_t>(radius));

  // Each ego node's position in the layer of its own depth, at
  // pos[ego_base[e] + i]; -1 for nodes deeper than the radius.
  std::vector<size_t> ego_base(egos.size() + 1, 0);
  for (size_t e = 0; e < egos.size(); ++e)
    ego_base[e + 1] = ego_base[e] + egos[e].nodes.size();
  std::vector<int> pos(ego_base.back(), -1);

  // One index, refilled per layer: temporal node -> position in
  // layer_nodes[l]. No layer holds more nodes than the egos do, so
  // reserving for all of them keeps it from ever rehashing.
  TemporalNodeIndex index;
  index.Reserve(ego_base.back());
  auto intern = [&](int layer, TemporalNodeRef node) -> int {
    auto& nodes = stack.layer_nodes[static_cast<size_t>(layer)];
    auto [at, inserted] = index.Insert(node, static_cast<int>(nodes.size()));
    if (inserted) nodes.push_back(node);
    return at;
  };

  // S_0 = centers.
  stack.center_index.reserve(egos.size());
  for (size_t e = 0; e < egos.size(); ++e) {
    TGSIM_CHECK(egos[e].size() > 0 && egos[e].nodes[0] == egos[e].center);
    stack.center_index.push_back(intern(0, egos[e].center));
    pos[ego_base[e]] = stack.center_index.back();
  }

  // Layer l must contain every node of layer l-1 (self message path), plus
  // all hop-l nodes of every ego-graph. S_l starts as a copy of S_{l-1}, so
  // node i of S_{l-1} is node i of S_l.
  for (int l = 1; l <= radius; ++l) {
    index.Clear();
    for (const TemporalNodeRef& node :
         stack.layer_nodes[static_cast<size_t>(l) - 1])
      intern(l, node);
    for (size_t e = 0; e < egos.size(); ++e) {
      const EgoGraph& ego = egos[e];
      for (int i = 0; i < ego.size(); ++i) {
        if (ego.depth[static_cast<size_t>(i)] == l)
          pos[ego_base[e] + static_cast<size_t>(i)] =
              intern(l, ego.nodes[static_cast<size_t>(i)]);
      }
    }
  }

  // Edges. Self-loops connect each S_d node i from its S_{d+1} copy, which
  // is node i too. An ego edge (parent at depth d, child at depth d+1)
  // becomes a message edge child(S_{d+1}) -> parent(S_d) in layers[d].
  std::vector<std::vector<std::pair<int, int>>> edges(
      static_cast<size_t>(radius));
  for (int l = 0; l < radius; ++l) {
    auto& e = edges[static_cast<size_t>(l)];
    const size_t n = stack.layer_nodes[static_cast<size_t>(l)].size();
    for (int i = 0; i < static_cast<int>(n); ++i) e.emplace_back(i, i);
  }
  for (size_t e = 0; e < egos.size(); ++e) {
    const EgoGraph& ego = egos[e];
    for (auto [pi, ci] : ego.edges) {
      int d = ego.depth[static_cast<size_t>(pi)];
      // Ego-graphs may contain non-layered edges (a sampled neighbor that
      // was already discovered at an equal or shallower hop). Only strictly
      // layered edges participate in the bipartite computation graph; the
      // self-loop paths keep everything else reachable.
      if (ego.depth[static_cast<size_t>(ci)] != d + 1) continue;
      if (d >= radius) continue;
      const int src = pos[ego_base[e] + static_cast<size_t>(ci)];
      const int dst = pos[ego_base[e] + static_cast<size_t>(pi)];
      TGSIM_CHECK(src >= 0 && dst >= 0);
      edges[static_cast<size_t>(d)].emplace_back(src, dst);
    }
  }

  for (int l = 0; l < radius; ++l) {
    auto& e = edges[static_cast<size_t>(l)];
    std::sort(e.begin(), e.end());
    e.erase(std::unique(e.begin(), e.end()), e.end());
    BipartiteLayer& layer = stack.layers[static_cast<size_t>(l)];
    layer.src.reserve(e.size());
    layer.dst.reserve(e.size());
    for (auto [s, d] : e) {
      layer.src.push_back(s);
      layer.dst.push_back(d);
    }
  }
  return stack;
}

}  // namespace tgsim::graphs
