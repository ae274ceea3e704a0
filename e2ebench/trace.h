#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// In-memory span recorder of a traced run. A span wraps one call the
/// benchmark makes into a layer's public function and records its name,
/// start, end, parent span and request id. Each client thread records into
/// its own lane, so recording takes no lock; spans are written out once,
/// when the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  struct SpanRecord {
    const char* name;  // A string literal: "<layer>.<call>".
    int64_t start_ns;
    int64_t end_ns;
    int parent;        // Index in the same lane, or -1.
    int64_t request;   // Request/op id, or -1.
  };

  Tracer(bool enabled, int lanes);

  bool enabled() const { return enabled_; }
  int Open(int lane, const char* name, int64_t request);
  void Close(int lane, int index);

  /// Number of spans recorded so far in `lane` (a window start/end).
  size_t Mark(int lane) const { return lanes_[lane].spans.size(); }
  /// Self time (duration minus the direct children's) in ms, summed by
  /// span name over the spans [begin, end) of `lane`.
  std::map<std::string, double> SelfMs(int lane, size_t begin,
                                       size_t end) const;
  /// Durations in ms of every span called `name`, across all lanes.
  std::vector<double> DurationsMs(const std::string& name) const;
  size_t SpanCount() const;
  /// One JSON object per span: lane, name, start/end ns, parent, request.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Lane {
    std::vector<SpanRecord> spans;
    std::vector<int> open;  // Stack of open span indices.
  };
  bool enabled_;
  std::vector<Lane> lanes_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int64_t request = -1, int lane = 0)
      : tracer_(tracer),
        lane_(lane),
        index_(tracer.enabled() ? tracer.Open(lane, name, request) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.Close(lane_, index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int lane_;
  int index_;
};

/// Measured cost of one Span open/close pair on an enabled tracer, in ns
/// (the basis of the trace.overhead_pct estimate).
double SpanCostNs();

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
