#ifndef TGSIM_DATASETS_SYNTHETIC_H_
#define TGSIM_DATASETS_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/temporal_graph.h"

namespace tgsim::datasets {

/// Target shape of one of the paper's Table II networks.
struct DatasetSpec {
  std::string name;
  int num_nodes = 0;
  int64_t num_edges = 0;
  int num_timestamps = 0;
};

/// The seven Table II networks (full paper-scale shapes).
const std::vector<DatasetSpec>& TableIIDatasets();

/// Looks up a Table II spec by name (case-sensitive, e.g. "DBLP").
const DatasetSpec* FindDataset(const std::string& name);

/// Knobs of the synthetic mimic generator. The paper evaluates on real
/// networks we cannot redistribute; MakeMimic produces a seeded synthetic
/// stand-in with the same scale (nodes/edges/timestamps after `scale`), a
/// heavy-tailed degree profile (temporal preferential attachment), community
/// structure (drives triangles/motifs), and gradual node arrival (drives the
/// per-timestamp growth curves of Fig. 5). It reproduces the statistics
/// the paper's metrics read, not any real graph's edges, so absolute scores
/// differ from the paper's tables while method rankings can be compared.
struct MimicConfig {
  /// Multiplies nodes/edges/timestamps (timestamps floored at 8).
  double scale = 1.0;
  /// Number of communities; <= 0 picks ~sqrt(n)/2 automatically.
  int num_communities = 0;
  /// Probability that an edge stays inside its source's community.
  double intra_community_prob = 0.7;
  /// Pareto exponent of node activity weights (smaller = heavier tail).
  double activity_alpha = 1.6;
  /// Fraction of nodes active from t=0 (the rest arrive linearly in time).
  double initial_active_fraction = 0.3;
};

/// Builds the synthetic stand-in for `spec`.
graphs::TemporalGraph MakeMimic(const DatasetSpec& spec,
                                const MimicConfig& config, uint64_t seed);

/// Convenience: mimic by Table II name at the given scale.
graphs::TemporalGraph MakeMimicByName(const std::string& name, double scale,
                                      uint64_t seed);

/// Configuration of the scalability datasets of the paper's Figure 6,
/// labeled "nodes * timestamps * density". Each snapshot draws
/// round(density * n^2) uniform random directed edges.
struct ScalabilityConfig {
  int num_nodes = 1000;
  int num_timestamps = 10;
  double density = 0.01;

  /// Label in the paper's axis format, e.g. "1k*10*0.01".
  std::string Label() const;
};

/// Uniform random temporal graph of the requested size.
graphs::TemporalGraph MakeScalabilityGraph(const ScalabilityConfig& config,
                                           uint64_t seed);

}  // namespace tgsim::datasets

#endif  // TGSIM_DATASETS_SYNTHETIC_H_
