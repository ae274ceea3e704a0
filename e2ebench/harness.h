#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/temporal_graph.h"

namespace e2ebench {

/// One benchmark invocation (flags parsed in main.cc).
struct Options {
  std::string workload;
  /// Workload seed: fit, op and request seeds and update deltas derive
  /// from it through DeriveSeed (the mimics are fixed: kMimicSeed).
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed at 4 for reported numbers (the global pool and the daemon).
  int threads = 4;
  /// `tgsim` binary that serve-mixed launches as its daemon.
  std::string tgsim_binary;
  /// Scratch directory for artifacts, deltas, the socket and the trace.
  std::string workdir;
  /// Toy size: tiny mimics and epoch budgets, for the benchmark's own
  /// tests. Toy runs print results but are not the benchmark.
  bool toy = false;
  /// serve-mixed: reads per writer update + live generate. The default is
  /// the median ratio an unpaced closed-loop writer reached (README.md,
  /// "Traffic mix"); 0 runs the writer unpaced, to measure it again.
  int64_t reads_per_update = 260;
  /// Test hook: "drop-edge" or "flip-byte" corrupts one checked output so
  /// the tests can prove the output checks count failures.
  std::string inject_fault;
};

/// Ops attempted/failed plus the named metric values of one run. An op
/// fails when any of its output checks fails; a check may run after the
/// timed phase, so failures are recorded against the op's index.
class Report {
 public:
  /// Registers one attempted op; returns its index.
  size_t Op() {
    op_ok_.push_back(true);
    return op_ok_.size() - 1;
  }
  /// Marks op `index` failed and says why on stderr.
  void Fail(size_t index, const std::string& what);
  int64_t attempted() const { return static_cast<int64_t>(op_ok_.size()); }
  int64_t failed() const;

  void Set(const std::string& name, double value) { values_[name] = value; }
  const std::map<std::string, double>& values() const { return values_; }

  /// Figures printed in the context line rather than as metrics, such as
  /// `op_wall_p50_ms`, the median op's wall time (a read's round trip on
  /// serve-mixed): what a user waits for, but unsteady under steal.
  void SetContext(const std::string& name, double value) {
    context_[name] = value;
  }
  const std::map<std::string, double>& context() const { return context_; }

 private:
  std::vector<bool> op_ok_;
  std::map<std::string, double> values_;
  std::map<std::string, double> context_;
};

/// Deterministic child seed of the workload seed for one named stream
/// (splitmix64 over the seed, the stream name and the index), < 2^63.
uint64_t DeriveSeed(uint64_t seed, std::string_view stream,
                    uint64_t index = 0);

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1]. With fewer than 1/(1-q) samples
/// it is the largest sample.
double Percentile(std::vector<double> values, double q);

/// CPU seconds used so far by all threads of this process.
double ProcessCpuSeconds();
/// CPU seconds (user + system, all threads) used so far by process `pid`.
double ChildCpuSeconds(int pid);

/// Starts a peak-RSS window: resets VmHWM of `pid` (0 = this process,
/// which first returns its freed heap to the kernel) to the current RSS by
/// writing 5 to /proc/<pid>/clear_refs. False if the kernel refuses.
bool ResetPeakRss(int pid);
/// VmHWM of `pid` (0 = this process) in MiB, or -1 if unreadable.
double PeakRssMib(int pid);

/// Aggregate CPU jiffies from /proc/stat, for the steal share of a run.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();

/// Per-(timestamp, source) out-edge counts; two graphs with equal profiles
/// spend the same per-node budget at every timestamp.
std::vector<int64_t> OutDegreeProfile(const tgsim::graphs::TemporalGraph& g);
/// True if any edge has u == v.
bool HasSelfLoop(const tgsim::graphs::TemporalGraph& g);
/// Copy of `g` without its last edge (the drop-edge fault).
tgsim::graphs::TemporalGraph DropLastEdge(const tgsim::graphs::TemporalGraph& g);

/// Whole file as bytes ("" if unreadable).
std::string ReadFile(const std::string& path);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
