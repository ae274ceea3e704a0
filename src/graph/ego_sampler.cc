#include "graph/ego_sampler.h"

#include <algorithm>
#include <utility>

namespace tgsim::graphs {

std::span<const TemporalNeighbor> EgoGraphSampler::SampleNeighbors(
    std::span<const TemporalNeighbor> window, Rng& rng,
    std::vector<TemporalNeighbor>& picks) const {
  const int th = config_.neighbor_threshold;
  if (th <= 0 || static_cast<int>(window.size()) <= th) return window;
  // Algorithm 1, NodeSampling: `th` draws with replacement — intentionally
  // allowed to name fewer than th distinct nodes.
  picks.clear();
  for (int i = 0; i < th; ++i) {
    picks.push_back(window[static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(window.size())))]);
  }
  return picks;
}

void EgoGraphSampler::SampleInto(TemporalNodeRef center, Rng& rng,
                                 EgoSamplerScratch& scratch,
                                 EgoGraph& ego) const {
  ego.center = center;
  ego.nodes.assign(1, center);
  ego.depth.assign(1, 0);
  ego.edges.clear();

  TemporalNodeIndex& index = scratch.index;  // temporal node -> position
  index.Clear();
  index.Insert(center, 0);

  // Breadth-first expansion to radius k. The time window is anchored at the
  // center's timestamp (Def. 3), so every node in the ego-graph is within
  // t_N of the center.
  std::vector<int>& frontier = scratch.frontier;
  std::vector<int>& next_frontier = scratch.next_frontier;
  frontier.assign(1, 0);
  for (int hop = 1; hop <= config_.radius && !frontier.empty(); ++hop) {
    next_frontier.clear();
    for (int parent_idx : frontier) {
      const NodeId parent = ego.nodes[static_cast<size_t>(parent_idx)].node;
      std::span<const TemporalNeighbor> chosen = SampleNeighbors(
          WithinTimeWindow(graph_->Neighbors(parent), center.t,
                           config_.time_window),
          rng, scratch.picks);
      for (const TemporalNeighbor& nb : chosen) {
        const TemporalNodeRef child{nb.node, nb.t};
        auto [child_idx, inserted] = index.Insert(child, ego.size());
        if (inserted) {
          ego.nodes.push_back(child);
          ego.depth.push_back(hop);
          next_frontier.push_back(child_idx);
        }
        if (child_idx != parent_idx)
          ego.edges.emplace_back(parent_idx, child_idx);
      }
    }
    std::swap(frontier, next_frontier);
  }
  // Dedup parallel sampled edges (repeated picks and repeated windows).
  std::sort(ego.edges.begin(), ego.edges.end());
  ego.edges.erase(std::unique(ego.edges.begin(), ego.edges.end()),
                  ego.edges.end());
}

EgoGraph EgoGraphSampler::Sample(TemporalNodeRef center, Rng& rng) const {
  EgoSamplerScratch scratch;
  EgoGraph ego;
  SampleInto(center, rng, scratch, ego);
  return ego;
}

InitialNodeSampler::InitialNodeSampler(std::vector<TemporalNodeRef> occurrences,
                                       std::vector<double> weights)
    : uniform_(false),
      occurrences_(std::move(occurrences)),
      weights_(std::move(weights)) {
  TGSIM_CHECK_EQ(occurrences_.size(), weights_.size());
  if (!weights_.empty()) alias_ = sampling::AliasTable(weights_);
}

InitialNodeSampler::InitialNodeSampler(const TemporalGraph* graph,
                                       int time_window, bool uniform)
    : uniform_(uniform) {
  TGSIM_CHECK(graph != nullptr);
  TGSIM_CHECK(graph->finalized());
  // Enumerate distinct node occurrences and their temporal degrees.
  for (NodeId u = 0; u < graph->num_nodes(); ++u) {
    auto nbrs = graph->Neighbors(u);
    size_t i = 0;
    while (i < nbrs.size()) {
      Timestamp t = nbrs[i].t;
      size_t j = i;
      while (j < nbrs.size() && nbrs[j].t == t) ++j;
      occurrences_.push_back({u, t});
      weights_.push_back(static_cast<double>(
          graph->TemporalDegree(u, t, time_window)));
      i = j;
    }
  }
  // Every enumerated occurrence has at least one in-window neighbor (the
  // edge that created it), so the total mass is positive whenever the
  // graph has edges.
  if (!uniform_ && !weights_.empty())
    alias_ = sampling::AliasTable(weights_);
}

std::vector<TemporalNodeRef> InitialNodeSampler::Sample(int n_s,
                                                        Rng& rng) const {
  TGSIM_CHECK(!occurrences_.empty());
  std::vector<TemporalNodeRef> out;
  out.reserve(static_cast<size_t>(n_s));
  if (uniform_) {
    for (int i = 0; i < n_s; ++i) {
      out.push_back(occurrences_[static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(occurrences_.size())))]);
    }
    return out;
  }
  // Degree-proportional sampling (Eq. 2): O(1) per draw off the alias
  // table built at construction.
  for (int i = 0; i < n_s; ++i)
    out.push_back(occurrences_[alias_.Draw(rng)]);
  return out;
}

}  // namespace tgsim::graphs
