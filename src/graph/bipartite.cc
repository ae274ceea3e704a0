#include "graph/bipartite.h"

#include <utility>

#include "graph/temporal_node_index.h"

namespace tgsim::graphs {

namespace {

/// One stable counting pass: writes the pairs (key[i], val[i]) to
/// key_out/val_out in ascending key order, keys in [0, num_keys). `start`
/// is scratch.
void CountingPass(const std::vector<int>& key, const std::vector<int>& val,
                  int num_keys, std::vector<int>& key_out,
                  std::vector<int>& val_out, std::vector<int>& start) {
  start.assign(static_cast<size_t>(num_keys) + 1, 0);
  for (int k : key) ++start[static_cast<size_t>(k) + 1];
  for (size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  key_out.resize(key.size());
  val_out.resize(key.size());
  for (size_t i = 0; i < key.size(); ++i) {
    const auto at = static_cast<size_t>(start[static_cast<size_t>(key[i])]++);
    key_out[at] = key[i];
    val_out[at] = val[i];
  }
}

}  // namespace

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

  // One index for every layer: temporal node -> position. S_l starts as a
  // copy of S_{l-1}, so a node keeps its position from the layer that
  // first holds it on, and the index filled for S_{l-1} already maps every
  // node of S_l's prefix. No layer holds more nodes than the egos do, so
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
  // all hop-l nodes of every ego-graph.
  for (int l = 1; l <= radius; ++l) {
    stack.layer_nodes[static_cast<size_t>(l)] =
        stack.layer_nodes[static_cast<size_t>(l) - 1];
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
  std::vector<BipartiteLayer> edges(static_cast<size_t>(radius));
  for (int l = 0; l < radius; ++l) {
    BipartiteLayer& e = edges[static_cast<size_t>(l)];
    const int n = static_cast<int>(
        stack.layer_nodes[static_cast<size_t>(l)].size());
    for (int i = 0; i < n; ++i) {
      e.src.push_back(i);
      e.dst.push_back(i);
    }
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
      edges[static_cast<size_t>(d)].src.push_back(src);
      edges[static_cast<size_t>(d)].dst.push_back(dst);
    }
  }

  // Order each layer's edges by (src, dst) and drop repeats: a stable
  // counting pass by dst, then one by src, leaves the pairs in the order a
  // comparison sort would.
  BipartiteLayer by_dst;
  std::vector<int> start;
  for (int l = 0; l < radius; ++l) {
    const BipartiteLayer& e = edges[static_cast<size_t>(l)];
    BipartiteLayer& layer = stack.layers[static_cast<size_t>(l)];
    const int n_dst = static_cast<int>(
        stack.layer_nodes[static_cast<size_t>(l)].size());
    const int n_src = static_cast<int>(
        stack.layer_nodes[static_cast<size_t>(l) + 1].size());
    CountingPass(e.dst, e.src, n_dst, by_dst.dst, by_dst.src, start);
    CountingPass(by_dst.src, by_dst.dst, n_src, layer.src, layer.dst, start);
    size_t kept = 0;
    for (size_t i = 0; i < layer.src.size(); ++i) {
      if (kept > 0 && layer.src[i] == layer.src[kept - 1] &&
          layer.dst[i] == layer.dst[kept - 1])
        continue;
      layer.src[kept] = layer.src[i];
      layer.dst[kept] = layer.dst[i];
      ++kept;
    }
    layer.src.resize(kept);
    layer.dst.resize(kept);
  }
  return stack;
}

}  // namespace tgsim::graphs
