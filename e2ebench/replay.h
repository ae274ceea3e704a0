#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/tgae.h"
#include "graph/temporal_graph.h"
#include "harness.h"
#include "trace.h"

namespace e2ebench {

/// What one replay measured: span self time per layer call, the replay's
/// wall time, and its work counts.
struct ReplayResult {
  std::map<std::string, double> layer_ms;
  double wall_ms = 0.0;
  int64_t ego_nodes = 0;    // Ego-graph nodes sampled.
  int64_t decode_rows = 0;  // Rows through the dense n-wide decode.
  int64_t gen_chunks = 0;   // Generation chunks (Generate only).
  int64_t draws = 0;        // Categorical draws (Generate only).
};

/// TgaeGenerator::Fit and ::Generate have no public seam below them, so a
/// traced run replays their loops at the workload's exact shapes through
/// the public layer calls they make (InitialNodeSampler/EgoGraphSampler,
/// BuildBipartiteStack, Embedding/TgatEncoder/Mlp::Forward, MatMul,
/// RowCrossEntropyWithLogits, Backward, Adam, TreeSampler), one span per
/// call, on a model built with `config` (which must be the dense, tied,
/// probabilistic paper configuration). A replay that drifts from the real
/// loop shows up as a change in its coverage of the measured op.

/// `epochs` training epochs of TgaeGenerator::TrainEpochs on `observed`.
ReplayResult ReplayTrainEpochs(const tgsim::graphs::TemporalGraph& observed,
                               const tgsim::core::TgaeConfig& config,
                               int epochs, uint64_t seed, Tracer& tracer);

/// One TgaeGenerator::Generate over `observed` plus the WriteEdgeList of
/// its output (the gen-paper-msg op).
ReplayResult ReplayGenerate(const tgsim::graphs::TemporalGraph& observed,
                            const tgsim::core::TgaeConfig& config,
                            uint64_t seed, Tracer& tracer);

/// Sets the per-layer metrics a replay measured, scaled by `per_op` (how
/// many replays make one measured op): `<span>_ms` self times plus the work
/// counts, and nn.decode_gflop computed as 2 * rows * n * d.
void ReportReplay(const ReplayResult& replay, double per_op, int num_nodes,
                  int dim, Report& report);

}  // namespace e2ebench

#endif  // E2EBENCH_REPLAY_H_
