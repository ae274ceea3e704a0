#ifndef TGSIM_GRAPH_EGO_SAMPLER_H_
#define TGSIM_GRAPH_EGO_SAMPLER_H_

#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/temporal_graph.h"
#include "graph/types.h"
#include "sampling/samplers.h"

namespace tgsim::graphs {

/// Hyper-parameters of the paper's Algorithm 1 and Def. 3/4.
struct EgoGraphConfig {
  /// k — the ego-graph radius; the encoder stacks k TGAT layers.
  int radius = 2;
  /// th — neighbor truncation threshold. When a node's temporal
  /// neighborhood exceeds it, `th` neighbors are drawn with replacement
  /// (so the sampled set may be smaller than th). Setting this to 1 yields
  /// the random-walk variant TGAE-g; <= 0 disables truncation (TGAE-t).
  int neighbor_threshold = 20;
  /// t_N — time-window radius around the center's timestamp (Def. 3).
  int time_window = 2;
};

/// A sampled k-radius temporal ego-graph (paper Def. 4).
///
/// Nodes are temporal node occurrences; index 0 is always the center.
/// `edges` are index pairs (parent, child) pointing into `nodes`, oriented
/// away from the center (parent is one hop closer to the center).
/// `depth[i]` is the hop distance of nodes[i] from the center.
struct EgoGraph {
  TemporalNodeRef center;
  std::vector<TemporalNodeRef> nodes;
  std::vector<std::pair<int, int>> edges;
  std::vector<int> depth;

  int size() const { return static_cast<int>(nodes.size()); }
};

/// Samples k-radius temporal ego-graphs (paper Algorithm 1).
class EgoGraphSampler {
 public:
  EgoGraphSampler(const TemporalGraph* graph, EgoGraphConfig config)
      : graph_(graph), config_(config) {
    TGSIM_CHECK(graph != nullptr);
    TGSIM_CHECK(graph->finalized());
    TGSIM_CHECK_GE(config.radius, 1);
  }

  /// Samples the ego-graph rooted at `center`.
  EgoGraph Sample(TemporalNodeRef center, Rng& rng) const;

  const EgoGraphConfig& config() const { return config_; }

 private:
  /// Paper's NodeSampling: keeps the whole set if within the threshold,
  /// otherwise draws `threshold` samples with replacement (dedup'd).
  std::vector<TemporalNeighbor> SampleNeighbors(
      const std::vector<TemporalNeighbor>& all, Rng& rng) const;

  const TemporalGraph* graph_;
  EgoGraphConfig config_;
};

/// Degree-proportional initial temporal node sampler (paper Eq. 2): picks
/// n_s temporal nodes with probability proportional to their temporal
/// degree; with `uniform` set it degenerates to uniform sampling over node
/// occurrences (the TGAE-n ablation variant).
///
/// The degree distribution is fixed at construction, so the sampler builds
/// a `sampling::AliasTable` once and every draw is O(1) — this sits on the
/// per-walk path of TIGGER/TagGen generation, which previously paid an
/// O(occurrences) CDF rebuild per Sample call.
class InitialNodeSampler {
 public:
  InitialNodeSampler(const TemporalGraph* graph, int time_window,
                     bool uniform = false);

  /// Builds a degree-weighted sampler from an explicit distribution: the
  /// occurrences()/weights() an artifact stores, or the weights Update
  /// merges. The alias build is deterministic, so a sampler rebuilt from a
  /// graph-built one's weights draws bit-identically to it. Sizes must
  /// match and weights must carry positive total mass (loaders check
  /// untrusted weights with sampling::ValidateWeights first).
  InitialNodeSampler(std::vector<TemporalNodeRef> occurrences,
                     std::vector<double> weights);

  /// Draws n_s temporal nodes (with replacement across draws).
  std::vector<TemporalNodeRef> Sample(int n_s, Rng& rng) const;

  /// All distinct temporal nodes (node occurrences) of the graph.
  const std::vector<TemporalNodeRef>& occurrences() const {
    return occurrences_;
  }

  /// Temporal degree per occurrence (the Eq. 2 sampling weights).
  const std::vector<double>& weights() const { return weights_; }

  /// The alias table behind degree-weighted draws (empty when `uniform`),
  /// exposed for resident-size accounting.
  const sampling::AliasTable& alias() const { return alias_; }

 private:
  bool uniform_;
  std::vector<TemporalNodeRef> occurrences_;
  std::vector<double> weights_;  // temporal degree per occurrence
  sampling::AliasTable alias_;   // built once over weights_ (unless uniform)
};

}  // namespace tgsim::graphs

#endif  // TGSIM_GRAPH_EGO_SAMPLER_H_
