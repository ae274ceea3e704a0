#include "trace.h"

#include <fstream>

namespace e2ebench {

namespace {

int64_t NsSince(std::chrono::steady_clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace

Tracer::Tracer(bool enabled, int lanes)
    : enabled_(enabled),
      lanes_(static_cast<size_t>(lanes)),
      epoch_(std::chrono::steady_clock::now()) {}

int Tracer::Open(int lane, const char* name, int64_t request) {
  Lane& l = lanes_[static_cast<size_t>(lane)];
  const int parent = l.open.empty() ? -1 : l.open.back();
  const int index = static_cast<int>(l.spans.size());
  l.spans.push_back({name, NsSince(epoch_), 0, parent, request});
  l.open.push_back(index);
  return index;
}

void Tracer::Close(int lane, int index) {
  Lane& l = lanes_[static_cast<size_t>(lane)];
  l.spans[static_cast<size_t>(index)].end_ns = NsSince(epoch_);
  l.open.pop_back();
}

std::map<std::string, double> Tracer::SelfMs(int lane, size_t begin,
                                             size_t end) const {
  const std::vector<SpanRecord>& spans =
      lanes_[static_cast<size_t>(lane)].spans;
  std::vector<int64_t> child_ns(end - begin, 0);
  for (size_t i = begin; i < end; ++i) {
    const int p = spans[i].parent;
    if (p >= static_cast<int>(begin))
      child_ns[static_cast<size_t>(p) - begin] +=
          spans[i].end_ns - spans[i].start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = begin; i < end; ++i)
    self[spans[i].name] +=
        1e-6 * static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                   child_ns[i - begin]);
  return self;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Lane& l : lanes_)
    for (const SpanRecord& s : l.spans)
      if (name == s.name)
        out.push_back(1e-6 * static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

size_t Tracer::SpanCount() const {
  size_t n = 0;
  for (const Lane& l : lanes_) n += l.spans.size();
  return n;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (size_t lane = 0; lane < lanes_.size(); ++lane)
    for (const SpanRecord& s : lanes_[lane].spans)
      out << "{\"lane\":" << lane << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
  return static_cast<bool>(out);
}

double SpanCostNs() {
  constexpr int kSpans = 100000;
  Tracer probe(true, 1);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) Span span(probe, "trace.probe", i);
  return static_cast<double>(NsSince(start)) / kSpans;
}

}  // namespace e2ebench
