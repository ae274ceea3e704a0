#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <chrono>
#include <string>

#include "config/param_map.h"
#include "harness.h"
#include "trace.h"

namespace e2ebench {

/// Every workload sets up this many times (fixtures, daemon, warm-up op)
/// and reports the median as setup_s; the last setup serves the run.
inline constexpr int kSetupReps = 3;
/// Timed ops continue past --seconds until at least this many ran; the
/// peak_tracked_mib seed list is the first kMinOps ops.
inline constexpr int kMinOps = 3;
/// The mimics stand in for the fixed Table II datasets, so every run
/// measures the same graphs: the ones `tgsim fit --synthetic NAME --scale S`
/// builds with its default seed 7. Everything else derives from --seed.
/// (Seed-derived mimics spread gen-paper-msg's op CPU by 26% between the
/// quartiles of ten seeds, most of it from the graphs' differing sizes.)
inline constexpr uint64_t kMimicSeed = 7;

/// A workload runs its setups, then its timed ops for opt.seconds, checks
/// every output outside the timed region, and fills `report` with every
/// end-to-end metric, or with its per-layer metrics when opt.trace is set.
/// Returns false (after saying why on stderr) if the run cannot produce
/// numbers at all, e.g. the daemon never became ready.
bool RunFitPaperDblp(const Options& opt, Tracer& tracer, Report& report);
bool RunGenPaperMsg(const Options& opt, Tracer& tracer, Report& report);
bool RunServeMixed(const Options& opt, Tracer& tracer, Report& report);

/// `preset=paper`, plus an epoch budget when `epochs` > 0.
inline tgsim::config::ParamMap PaperParams(int epochs = 0) {
  tgsim::config::ParamMap params;
  params.Override("preset", "paper");
  if (epochs > 0) params.Override("epochs", std::to_string(epochs));
  return params;
}

inline double MiB(double bytes) { return bytes / (1024.0 * 1024.0); }

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
