// Regenerates paper Figure 6: generation time (log seconds) and peak
// memory (log MiB) as the number of nodes, timestamps and edge density
// grow. A method whose previous run exceeded the per-run time budget is
// cut off for larger configurations, mirroring the "(Cut Off)" markers in
// the paper's plots.
//
// Sizes are 1/10 of the paper's axis labels so every method finishes on a
// laptop CPU; growth *shapes* (linear vs. quadratic) are preserved. A size
// x printed here stands for 10x on the paper's axis.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/memory_tracker.h"
#include "common/stopwatch.h"
#include "config/param_map.h"
#include "eval/registry.h"
#include "eval/table_printer.h"

namespace {

constexpr double kTimeBudgetSeconds = 20.0;

struct Measurement {
  bool cut_off = false;
  double fit_seconds = 0.0;
  double gen_seconds = 0.0;
  double peak_mib = 0.0;
};

}  // namespace

int main() {
  using namespace tgsim;
  bench::PrintHeaderBlock(
      "Figure 6 — generation time and peak memory scalability",
      "axes at 1/10 paper scale; CutOff = previous run exceeded 20 s");

  const std::vector<std::string> methods = {
      "TGAE",   "TGGAN", "TagGen",  "NetGAN",   "TIGGER", "DYMOND",
      "VGAE",   "Graphite", "SBMGNN", "E-R",    "B-A"};

  std::vector<std::pair<std::string, std::vector<datasets::ScalabilityConfig>>>
      sweeps;
  {
    std::vector<datasets::ScalabilityConfig> nodes, stamps, density;
    for (int n = 100; n <= 500; n += 100)
      nodes.push_back({n, 10, 0.01});
    for (int t = 10; t <= 50; t += 10)
      stamps.push_back({100, t, 0.01});
    for (int d = 1; d <= 5; ++d)
      density.push_back({100, 10, 0.01 * d});
    sweeps.emplace_back("node scale", nodes);
    sweeps.emplace_back("timestamp scale", stamps);
    sweeps.emplace_back("edge density scale", density);
  }

  for (const auto& [sweep_name, configs] : sweeps) {
    std::printf("\n--- %s ---\n", sweep_name.c_str());
    std::vector<std::string> header = {"Method"};
    for (const auto& c : configs) header.push_back(c.Label());
    eval::TablePrinter time_table(header);
    eval::TablePrinter mem_table(header);

    for (const std::string& method : methods) {
      std::vector<std::string> time_row = {method};
      std::vector<std::string> mem_row = {method};
      bool cut = false;
      for (const auto& config : configs) {
        if (cut) {
          time_row.push_back("CutOff");
          mem_row.push_back("CutOff");
          continue;
        }
        graphs::TemporalGraph g =
            datasets::MakeScalabilityGraph(config, 99);
        config::ParamMap fast;
        fast.Override("preset", "fast");
        auto gen = std::move(eval::MakeGenerator(method, fast)).value();
        Rng rng(41);
        MemoryUsageScope mem;
        Stopwatch fit_watch;
        gen->Fit(g, rng);
        double fit_s = fit_watch.ElapsedSeconds();
        Stopwatch gen_watch;
        graphs::TemporalGraph out = gen->Generate(rng);
        double gen_s = gen_watch.ElapsedSeconds();
        double peak = mem.PeakMiB();

        char buf[32];
        std::snprintf(buf, sizeof(buf), "%7.3f", gen_s);
        time_row.push_back(buf);
        if (gen->is_learning_based()) {
          std::snprintf(buf, sizeof(buf), "%7.1f", peak);
          mem_row.push_back(buf);
        } else {
          mem_row.push_back("n/a");  // Paper: E-R/B-A are not on the GPU.
        }
        if (fit_s + gen_s > kTimeBudgetSeconds) cut = true;
      }
      time_table.AddRow(time_row);
      mem_table.AddRow(mem_row);
      std::printf("measured %s\n", method.c_str());
      std::fflush(stdout);
    }
    std::printf("\nGeneration time (seconds):\n");
    time_table.Print();
    std::printf("\nPeak tracked memory (MiB):\n");
    mem_table.Print();
  }
  return 0;
}
