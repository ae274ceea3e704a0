#include "harness.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>


namespace e2ebench {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string ProcPath(int pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

}  // namespace

void Report::Fail(size_t index, const std::string& what) {
  op_ok_[index] = false;
  std::fprintf(stderr, "e2ebench: op %zu failed its output check: %s\n",
               index, what.c_str());
}

int64_t Report::failed() const {
  return std::count(op_ok_.begin(), op_ok_.end(), false);
}

uint64_t DeriveSeed(uint64_t seed, std::string_view stream, uint64_t index) {
  uint64_t h = SplitMix64(seed);
  for (char c : stream) h = SplitMix64(h ^ static_cast<unsigned char>(c));
  // 63 bits: the serve protocol and the CLI carry seeds as int64.
  return SplitMix64(h ^ SplitMix64(index + 1)) >> 1;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ChildCpuSeconds(int pid) {
  std::ifstream stat(ProcPath(pid, "stat"));
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line, in clock ticks.
  const size_t name_end = text.rfind(')');
  if (name_end == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(name_end + 1));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i)
    if (i >= 14) ticks += std::stod(field);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool ResetPeakRss(int pid) {
  if (pid == 0) malloc_trim(0);
  std::ofstream clear(ProcPath(pid, "clear_refs"));
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMib(int pid) {
  std::ifstream status(ProcPath(pid, "status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
  }
  return -1.0;
}

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // Aggregate "cpu" line: user nice system idle iowait irq
                // softirq steal (guest time is already inside user).
  CpuTimes times;
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

std::vector<int64_t> OutDegreeProfile(const tgsim::graphs::TemporalGraph& g) {
  // Finalized edges are sorted by (t, u, v): one (t, u, count) triple per
  // run of equal (t, u).
  std::vector<int64_t> profile;
  const auto& edges = g.edges();
  for (size_t i = 0; i < edges.size();) {
    size_t j = i;
    while (j < edges.size() && edges[j].t == edges[i].t &&
           edges[j].u == edges[i].u)
      ++j;
    profile.insert(profile.end(), {edges[i].t, edges[i].u,
                                   static_cast<int64_t>(j - i)});
    i = j;
  }
  return profile;
}

bool HasSelfLoop(const tgsim::graphs::TemporalGraph& g) {
  return std::any_of(g.edges().begin(), g.edges().end(),
                     [](const auto& e) { return e.u == e.v; });
}

tgsim::graphs::TemporalGraph DropLastEdge(
    const tgsim::graphs::TemporalGraph& g) {
  std::vector<tgsim::graphs::TemporalEdge> edges = g.edges();
  if (!edges.empty()) edges.pop_back();
  return tgsim::graphs::TemporalGraph::FromEdges(
      g.num_nodes(), g.num_timestamps(), std::move(edges));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace e2ebench
