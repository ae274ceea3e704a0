#include "graph/ego_sampler.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace tgsim::graphs {

std::vector<TemporalNeighbor> EgoGraphSampler::SampleNeighbors(
    const std::vector<TemporalNeighbor>& all, Rng& rng) const {
  int th = config_.neighbor_threshold;
  if (th <= 0 || static_cast<int>(all.size()) <= th) return all;
  // Algorithm 1, NodeSampling: `th` draws with replacement, dedup'd via
  // set-insertion — intentionally allowed to return fewer than th nodes.
  std::unordered_set<int64_t> seen;
  std::vector<TemporalNeighbor> out;
  out.reserve(static_cast<size_t>(th));
  for (int i = 0; i < th; ++i) {
    const TemporalNeighbor& pick =
        all[static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(all.size())))];
    int64_t key = static_cast<int64_t>(pick.node) * 1000003 + pick.t;
    if (seen.insert(key).second) out.push_back(pick);
  }
  return out;
}

EgoGraph EgoGraphSampler::Sample(TemporalNodeRef center, Rng& rng) const {
  EgoGraph ego;
  ego.center = center;
  ego.nodes.push_back(center);
  ego.depth.push_back(0);

  std::unordered_map<int64_t, int> index;  // temporal node -> position
  auto key_of = [](TemporalNodeRef r) {
    return static_cast<int64_t>(r.node) * 4000037 + r.t;
  };
  index[key_of(center)] = 0;

  // Breadth-first expansion to radius k. The time window is anchored at the
  // center's timestamp (Def. 3), so every node in the ego-graph is within
  // t_N of the center.
  std::vector<int> frontier = {0};
  for (int hop = 1; hop <= config_.radius && !frontier.empty(); ++hop) {
    std::vector<int> next_frontier;
    for (int parent_idx : frontier) {
      TemporalNodeRef parent = ego.nodes[static_cast<size_t>(parent_idx)];
      std::vector<TemporalNeighbor> nbrs = graph_->TemporalNeighborhood(
          parent.node, ego.center.t, config_.time_window);
      std::vector<TemporalNeighbor> chosen = SampleNeighbors(nbrs, rng);
      for (const TemporalNeighbor& nb : chosen) {
        TemporalNodeRef child{nb.node, nb.t};
        int64_t k = key_of(child);
        auto it = index.find(k);
        int child_idx;
        if (it == index.end()) {
          child_idx = ego.size();
          index.emplace(k, child_idx);
          ego.nodes.push_back(child);
          ego.depth.push_back(hop);
          next_frontier.push_back(child_idx);
        } else {
          child_idx = it->second;
        }
        if (child_idx != parent_idx)
          ego.edges.emplace_back(parent_idx, child_idx);
      }
    }
    frontier = std::move(next_frontier);
  }
  // Dedup parallel sampled edges.
  std::sort(ego.edges.begin(), ego.edges.end());
  ego.edges.erase(std::unique(ego.edges.begin(), ego.edges.end()),
                  ego.edges.end());
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
