// Incremental-fit benchmarks (google-benchmark): the serve-side update
// path — restore fitted state, absorb a delta batch — against the full
// refit it replaces. Writes BENCH_update.json via bench/run_bench.sh; CI
// compares fresh runs against the committed trajectory with
// bench/check_bench_regression.py.
//
// Naming convention (as in bench_generation.cc): a `...Ref` benchmark
// runs the pre-update discipline — refit the method on the whole stream
// from scratch — so the cost of absorbing one delta batch is measurable
// against the refit it avoids, on the same machine from one binary.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/generator.h"
#include "common/check.h"
#include "config/param_map.h"
#include "datasets/synthetic.h"
#include "eval/registry.h"
#include "graph/temporal_graph.h"
#include "nn/tensor.h"
#include "storage/sparse_rows.h"

namespace {

using namespace tgsim;

/// The observed stream every update bench splits: fit on the first half,
/// absorb the second half as one Update(delta) batch.
const graphs::TemporalGraph& Observed() {
  static const graphs::TemporalGraph* kGraph = new graphs::TemporalGraph(
      datasets::MakeMimicByName("DBLP", 0.08, 13));
  return *kGraph;
}

graphs::TemporalGraph HalfStream(bool first) {
  const graphs::TemporalGraph& g = Observed();
  const int split = g.num_timestamps() / 2;
  std::vector<graphs::TemporalEdge> edges;
  for (const graphs::TemporalEdge& e : g.edges())
    if ((e.t < split) == first) edges.push_back(e);
  return graphs::TemporalGraph::FromEdges(g.num_nodes(), g.num_timestamps(),
                                          std::move(edges));
}

std::unique_ptr<baselines::TemporalGraphGenerator> MakeFast(
    const std::string& method) {
  config::ParamMap params;
  params.Override("preset", "fast");
  auto gen = eval::MakeGenerator(method, params);
  TGSIM_CHECK(gen.ok());
  return std::move(gen).value();
}

/// The serve-side refresh: restore the fitted state from its file, then
/// Update(delta). State restore is in the timed region because the
/// daemon's update rebuilds from the artifact on disk every time; a score
/// state large enough for the blocks format mmaps them from that file.
void UpdateFromState(benchmark::State& state, const std::string& method) {
  graphs::TemporalGraph delta = HalfStream(false);
  auto fitted = MakeFast(method);
  Rng fit_rng(17);
  fitted->Fit(HalfStream(true), fit_rng);
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("bench_update_" + method + ".state"))
                               .string();
  {
    std::ofstream out(path);
    TGSIM_CHECK(fitted->SaveState(out).ok());
  }

  for (auto _ : state) {
    auto gen = MakeFast(method);
    std::ifstream in(path);
    TGSIM_CHECK(gen->LoadState(in, path).ok());
    Rng rng(17);
    TGSIM_CHECK(gen->Update(delta, rng).ok());
    benchmark::DoNotOptimize(gen);
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() * delta.num_edges());
}

/// The discipline Update replaces: refit on the full stream.
void FullRefitRef(benchmark::State& state, const std::string& method) {
  const graphs::TemporalGraph& observed = Observed();
  const int64_t delta_edges = HalfStream(false).num_edges();
  for (auto _ : state) {
    auto gen = MakeFast(method);
    Rng rng(17);
    gen->Fit(observed, rng);
    benchmark::DoNotOptimize(gen);
  }
  // Same items unit as UpdateFromState (new edges absorbed per pass), so
  // items_per_second ratios read as update-vs-refit speedups directly.
  state.SetItemsProcessed(state.iterations() * delta_edges);
}

void BM_UpdateTigger(benchmark::State& state) {
  UpdateFromState(state, "TIGGER");
}
BENCHMARK(BM_UpdateTigger);

void BM_FullRefitTiggerRef(benchmark::State& state) {
  FullRefitRef(state, "TIGGER");
}
BENCHMARK(BM_FullRefitTiggerRef);

void BM_UpdateDymond(benchmark::State& state) {
  UpdateFromState(state, "DYMOND");
}
BENCHMARK(BM_UpdateDymond);

void BM_FullRefitDymondRef(benchmark::State& state) {
  FullRefitRef(state, "DYMOND");
}
BENCHMARK(BM_FullRefitDymondRef);

void BM_UpdateNetgan(benchmark::State& state) {
  UpdateFromState(state, "NetGAN");
}
BENCHMARK(BM_UpdateNetgan);

void BM_FullRefitNetganRef(benchmark::State& state) {
  FullRefitRef(state, "NetGAN");
}
BENCHMARK(BM_FullRefitNetganRef);

// ---------------------------------------------------------------------------
// The score-row merge kernel under the NN methods' update path: mixing an
// old top-k row set with a delta row set at a given truncation width.
// ---------------------------------------------------------------------------

void BM_WeightedMergeRows(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int topk = static_cast<int>(state.range(1));
  Rng rng(7);
  storage::SparseScoreRows a = storage::SparseScoreRows::FromDense(
      nn::Tensor::RandUniform(rng, n, n, 0.0, 1.0), topk);
  storage::SparseScoreRows b = storage::SparseScoreRows::FromDense(
      nn::Tensor::RandUniform(rng, n, n, 0.0, 1.0), topk);
  for (auto _ : state) {
    storage::SparseScoreRows merged = storage::SparseScoreRows::WeightedMerge(
        a.View(), 2.0, b.View(), 1.0, topk);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n) *
                          topk);
}
BENCHMARK(BM_WeightedMergeRows)->Args({512, 64})->Args({1024, 128});

}  // namespace

BENCHMARK_MAIN();
