#ifndef TGSIM_BENCH_BENCH_COMMON_H_
#define TGSIM_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>

#include "datasets/synthetic.h"
#include "graph/temporal_graph.h"

namespace tgsim::bench {

/// Downscale factor applied to each Table II mimic so that every method
/// (including the O(n^2 T^2)-shaped baselines) terminates on a laptop CPU.
/// The OOM emulation still uses the full paper-scale shapes, so the tables
/// print the paper's OOM pattern.
inline double BenchScale(const std::string& dataset) {
  if (dataset == "DBLP") return 0.15;
  if (dataset == "EMAIL") return 0.02;
  if (dataset == "MSG") return 0.08;
  if (dataset == "BITCOIN-A") return 0.04;
  if (dataset == "BITCOIN-O") return 0.03;
  if (dataset == "MATH") return 0.01;
  if (dataset == "UBUNTU") return 0.005;
  return 0.05;
}

/// Deterministic per-dataset seed so benches are reproducible run to run.
inline uint64_t BenchSeed(const std::string& dataset) {
  uint64_t h = 1469598103934665603ull;
  for (char c : dataset) h = (h ^ static_cast<uint64_t>(c)) * 1099511628211ull;
  return h;
}

inline graphs::TemporalGraph BenchMimic(const std::string& dataset) {
  return datasets::MakeMimicByName(dataset, BenchScale(dataset),
                                   BenchSeed(dataset));
}

inline void PrintHeaderBlock(const char* title, const char* detail) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("%s\n", detail);
  std::printf("==============================================================\n");
}

}  // namespace tgsim::bench

#endif  // TGSIM_BENCH_BENCH_COMMON_H_
