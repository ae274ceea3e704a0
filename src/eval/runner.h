#ifndef TGSIM_EVAL_RUNNER_H_
#define TGSIM_EVAL_RUNNER_H_

#include <optional>
#include <string>
#include <vector>

#include "config/param_map.h"
#include "datasets/synthetic.h"
#include "eval/registry.h"
#include "graph/temporal_graph.h"
#include "metrics/temporal_scores.h"

namespace tgsim::eval {

/// Options for one fit+generate+score run.
struct RunOptions {
  /// Seed of the fresh Rng the single-run RunMethod overload creates.
  /// IGNORED by the Rng-consuming overload and by RunCells (each cell
  /// draws its Rng::Split stream from the batch's master seed; see
  /// RunCells).
  uint64_t seed = 7;
  /// Generator construction profile: "paper" (the defaults the benches
  /// report) or "fast" (the smoke-test shrink). Forwarded to the registry
  /// as `preset=<value>` unless method_params already sets one.
  std::string preset = "paper";
  /// Per-method parameter overrides (registry schema keys) layered on top
  /// of the preset, e.g. {"epochs=5"}.
  config::ParamMap method_params;
  /// Device budget for the paper-scale OOM emulation; 32 GB = the V100 of
  /// the paper's testbed.
  int64_t memory_budget_bytes = 32LL * 1024 * 1024 * 1024;
  /// Paper-scale shape used for the OOM decision. When unset, OOM
  /// emulation is disabled (everything runs).
  std::optional<datasets::DatasetSpec> paper_scale;
  /// Snapshot-metric timestamp stride (1 = every timestamp).
  int metric_stride = 1;
  /// Temporal motif window delta and MMD kernel bandwidth (Table VI).
  int motif_delta = 4;
  double mmd_sigma = 1.0;
  /// Cap on enumerated motif triples per census (guards dense graphs).
  int64_t motif_max_triples = 4000000;
  bool compute_graph_scores = true;
  bool compute_motif_mmd = false;
};

/// Outcome of one method on one dataset.
struct RunResult {
  std::string method;
  bool oom = false;
  double fit_seconds = 0.0;
  double generate_seconds = 0.0;
  double peak_mib = 0.0;  // Tracked allocator peak during fit+generate.
  /// f_avg/f_med per metric, ordered like metrics::AllGraphMetrics().
  std::vector<metrics::TemporalScore> scores;
  double motif_mmd = 0.0;
};

/// Fits `method` on `observed`, generates one graph, and scores it. The
/// generator is constructed through the registry factory
/// (`options.preset` + `options.method_params`), so an unknown method or a
/// bad parameter returns an error instead of crashing. If
/// `options.paper_scale` is set and the method's analytic paper-scale
/// memory model exceeds the budget, the run is skipped and marked OOM
/// (matching the paper's table presentation). Seeds a fresh Rng from
/// `options.seed`.
Result<RunResult> RunMethod(const std::string& method,
                            const graphs::TemporalGraph& observed,
                            const RunOptions& options);

/// Same, but consumes the caller-provided Rng stream instead of seeding
/// one (`options.seed` is ignored) — the building block RunCells uses to
/// hand each cell an independent Rng::Split child.
Result<RunResult> RunMethod(const std::string& method,
                            const graphs::TemporalGraph& observed,
                            const RunOptions& options, Rng& rng);

/// One (method, dataset) cell of an evaluation matrix. `observed` must
/// outlive the RunCells call.
struct RunCell {
  std::string method;
  const graphs::TemporalGraph* observed = nullptr;
  RunOptions options;
};

/// Runs every cell, concurrently on the global thread pool when it has
/// more than one thread. All generators are constructed serially up front
/// through the registry factory; the first invalid method name or
/// parameter fails the whole batch (annotated with the cell index) before
/// any cell runs.
///
/// Randomness contract: cell i consumes the i-th child of
/// Rng(master_seed).Split(cells.size()), so scores, motif MMDs, OOM flags
/// and per-cell peak memory are bit-identical to the serial run for any
/// thread count (wall-clock timings, as always, are not). Per-cell
/// `options.seed` is therefore IGNORED — only `master_seed` moves the
/// results (pinned by RunCellsTest.PerCellSeedIsIgnored).
Result<std::vector<RunResult>> RunCells(const std::vector<RunCell>& cells,
                                        uint64_t master_seed);

/// Formats a score the way the paper's tables do (e.g. "2.41E-3"), or
/// "OOM".
std::string FormatCell(double value, bool oom);

}  // namespace tgsim::eval

#endif  // TGSIM_EVAL_RUNNER_H_
