// e2ebench: end-to-end benchmark driver for TGAE fit, generation and
// serving, with a per-layer trace.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --tgsim PATH --workdir DIR [--commit ID] [--toy]
//            [--reads-per-update N] [--inject-fault drop-edge|flip-byte]
//
// Prints one `{"context": ...}` line (host, build, seeds, CPU steal) and,
// last, the result line {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric with --trace 0, every per-layer metric with --trace 1.
// `python3 e2ebench/run.py` builds this driver and runs it.

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "nn/simd.h"
#include "parallel/thread_pool.h"
#include "workloads.h"

namespace e2ebench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Costs are CPU time, not wall time: on a shared host, hypervisor steal
// moved a 4-thread op's wall time up to 2x within a minute while its CPU
// time moved by a tenth (README.md, "Why CPU time").
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_cpu_ms", "ms"},
    {"peak_tracked_mib", "MiB"},
    {"peak_rss_mib", "MiB"},
};

// A layer a workload does not call reads 0 on that workload.
constexpr MetricDef kPerLayer[] = {
    {"graph.ego_sample_ms", "ms"},    {"graph.bipartite_ms", "ms"},
    {"graph.support_ms", "ms"},       {"graph.finalize_ms", "ms"},
    {"graph.ego_nodes", "count"},     {"core.fit_ms", "ms"},
    {"core.generate_ms", "ms"},       {"core.encode_ms", "ms"},
    {"core.gen_chunks", "count"},     {"core.update_ms", "ms"},
    {"nn.decode_ms", "ms"},           {"nn.decode_rows", "count"},
    {"nn.decode_gflop", "GFLOP"},     {"nn.var_head_ms", "ms"},
    {"nn.loss_ms", "ms"},             {"nn.backward_ms", "ms"},
    {"nn.optim_ms", "ms"},            {"parallel.fit_scaling", "x"},
    {"parallel.gen_scaling", "x"},    {"sampling.draw_ms", "ms"},
    {"sampling.draws", "count"},      {"datasets.mimic_ms", "ms"},
    {"datasets.write_edges_ms", "ms"}, {"eval.load_artifact_ms", "ms"},
    {"eval.save_artifact_ms", "ms"},  {"baselines.generate_ms", "ms"},
    {"serve.read_p50_ms", "ms"},      {"serve.read_p99_ms", "ms"},
    {"serve.update_ms", "ms"},        {"serve.busy_ms", "ms"},
    {"serve.lock_wait_ms", "ms"},
    {"serve.outside_busy_ms", "ms"},  {"serve.reply_bytes", "bytes"},
    {"serve.live_generate_ms", "ms"}, {"serve.protocol_errors", "count"},
    {"serve.cache_loads", "count"},   {"serve.cache_evictions", "count"},
    {"serve.cache_hit_ratio", "ratio"}, {"serve.resident_mib", "MiB"},
    {"serve.daemon_rss_mib", "MiB"},  {"fit.replay_coverage", "ratio"},
    {"gen.replay_coverage", "ratio"}, {"trace.overhead_pct", "%"},
};

/// A seed the steadiness runs of the baseline never used, kept for
/// confirming a later claim on unseen inputs.
constexpr uint64_t kHoldoutSeed = 7919;

/// Client lanes of the tracer: main thread, three readers, one writer.
constexpr int kTraceLanes = 5;

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  return CPU_COUNT(&set);
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string ResultLine(const Report& report, const MetricDef* defs,
                       size_t count) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << report.attempted()
      << ", \"failed\": " << report.failed() << ", \"metrics\": {";
  for (size_t i = 0; i < count; ++i) {
    const auto it = report.values().find(defs[i].name);
    const double value = it == report.values().end() ? 0.0 : it->second;
    char digits[64];
    std::snprintf(digits, sizeof(digits), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    out << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": "
        << digits << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "fit-paper-dblp|gen-paper-msg|serve-mixed --seed N --seconds "
               "S --trace 0|1 --tgsim PATH --workdir DIR [--commit ID] "
               "[--toy] [--reads-per-update N] "
               "[--inject-fault drop-edge|flip-byte]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      opt.toy = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--tgsim") {
      opt.tgsim_binary = value;
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--reads-per-update") {
      opt.reads_per_update = std::strtoll(value.c_str(), &end, 10);
      if (*end != '\0' || opt.reads_per_update < 0)
        return Usage("--reads-per-update takes a whole number >= 0");
    } else if (flag == "--inject-fault") {
      if (value != "drop-edge" && value != "flip-byte")
        return Usage("unknown --inject-fault");
      opt.inject_fault = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool (*run)(const Options&, Tracer&, Report&) = nullptr;
  if (opt.workload == "fit-paper-dblp") run = RunFitPaperDblp;
  if (opt.workload == "gen-paper-msg") run = RunGenPaperMsg;
  if (opt.workload == "serve-mixed") run = RunServeMixed;
  if (run == nullptr) return Usage("unknown --workload");
  if (!have_seed) return Usage("--seed takes a whole number");
  if (opt.tgsim_binary.empty() || opt.workdir.empty())
    return Usage("--tgsim and --workdir are required");

  // Numbers only from an optimized build on a host with a core per thread.
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = std::string(E2EBENCH_BUILD_TYPE) == "Release";
#endif
  if (!release) {
    std::fprintf(stderr, "e2ebench: refusing to measure a '%s' build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 E2EBENCH_BUILD_TYPE);
    return 3;
  }
  const int cpus = UsableCpus();
  if (cpus < opt.threads) {
    std::fprintf(stderr, "e2ebench: refusing to measure %d threads on %d "
                         "usable CPUs\n",
                 opt.threads, cpus);
    return 3;
  }

  tgsim::parallel::ThreadPool::SetGlobalThreads(opt.threads);
  Tracer tracer(opt.trace, kTraceLanes);
  Report report;
  const CpuTimes cpu_start = ReadCpuTimes();
  const auto start = std::chrono::steady_clock::now();
  if (!run(opt, tracer, report)) return 1;
  const double wall_s = SecondsSince(start);
  const CpuTimes cpu_end = ReadCpuTimes();
  const double steal_pct =
      cpu_end.total > cpu_start.total
          ? 100.0 * static_cast<double>(cpu_end.steal - cpu_start.steal) /
                static_cast<double>(cpu_end.total - cpu_start.total)
          : 0.0;

  if (opt.trace) {
    // Instrumentation cost: spans recorded times the measured cost of one,
    // as a share of the traced run.
    report.Set("trace.overhead_pct",
               100.0 * static_cast<double>(tracer.SpanCount()) *
                   SpanCostNs() / (wall_s * 1e9));
    const std::string path = opt.workdir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".jsonl";
    if (!tracer.WriteJsonl(path))
      std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
  } else {
    for (const MetricDef& m : kEndToEnd) {
      if (report.values().count(m.name) == 0) {
        std::fprintf(stderr, "e2ebench: %s did not produce %s\n",
                     opt.workload.c_str(), m.name);
        return 1;
      }
    }
  }

  std::string extra;
  for (const auto& [name, value] : report.context()) {
    char digits[64];
    std::snprintf(digits, sizeof(digits), "%.6g",
                  std::isfinite(value) ? value : 0.0);
    extra += ", " + Quoted(name) + ": " + digits;
  }
  std::printf(
      "{\"context\": {\"workload\": %s, \"seed\": %llu, \"holdout_seed\": "
      "%llu, \"seconds\": %g, \"trace\": %d, \"toy\": %s, \"threads\": %d, "
      "\"nproc\": %ld, \"usable_cpus\": %d, \"cpu_model\": %s, "
      "\"simd_backend\": %s, \"build_type\": %s, \"commit\": %s, "
      "\"wall_s\": %.3f, \"steal_pct\": %.3f%s}}\n",
      Quoted(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(kHoldoutSeed), opt.seconds,
      opt.trace ? 1 : 0, opt.toy ? "true" : "false", opt.threads,
      sysconf(_SC_NPROCESSORS_ONLN), cpus, Quoted(CpuModel()).c_str(),
      Quoted(tgsim::nn::kernels::BackendName(
                 tgsim::nn::kernels::ActiveBackend()))
          .c_str(),
      Quoted(E2EBENCH_BUILD_TYPE).c_str(), Quoted(commit).c_str(), wall_s,
      steal_pct, extra.c_str());
  const std::string result =
      opt.trace ? ResultLine(report, kPerLayer, std::size(kPerLayer))
                : ResultLine(report, kEndToEnd, std::size(kEndToEnd));
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
