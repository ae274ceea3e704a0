// Generation hot-path benchmarks (google-benchmark): the O(1) sampler
// layer against faithful replicas of the draw disciplines it replaced.
// Writes BENCH_generation.json via bench/run_bench.sh; CI compares fresh
// runs against the committed trajectory with bench/check_bench_regression.py.
//
// Naming convention: a `...Ref` benchmark re-implements the pre-conversion
// code path (binary-search CDF / per-call CDF rebuild) so the speedup of
// the shipped path is measurable on the same machine from one binary. Ref
// loops are kept identical to their counterpart except for the draw
// itself, and a Ref stays only while a ratio gate in
// check_bench_regression.py reads it.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/score_sampling.h"
#include "config/param_map.h"
#include "datasets/synthetic.h"
#include "eval/registry.h"
#include "graph/ego_sampler.h"
#include "graph/temporal_graph.h"
#include "nn/tensor.h"
#include "sampling/samplers.h"

namespace {

using namespace tgsim;

/// Positive weights with the mild skew of a degree profile.
std::vector<double> MakeWeights(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(n);
  for (double& x : w) x = rng.Uniform(0.25, 4.0);
  return w;
}

/// Inclusive prefix sums (the deleted CDF representation).
std::vector<double> MakeCdf(const std::vector<double>& w) {
  std::vector<double> cdf(w.size());
  double acc = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    acc += w[i];
    cdf[i] = acc;
  }
  return cdf;
}

size_t CdfDraw(const std::vector<double>& cdf, Rng& rng) {
  double r = rng.Uniform() * cdf.back();
  size_t i = static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), r) - cdf.begin());
  return std::min(i, cdf.size() - 1);
}

// ---------------------------------------------------------------------------
// Single-draw kernels: O(1) alias and O(log n) tree.
// ---------------------------------------------------------------------------

void BM_DrawAlias(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<double> w = MakeWeights(n, 1);
  sampling::AliasTable table(w);
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(table.Draw(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DrawAlias)->Arg(1 << 10)->Arg(1 << 17)->Arg(1 << 20);

void BM_DrawTree(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<double> w = MakeWeights(n, 1);
  sampling::TreeSampler tree(w);
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(tree.Draw(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DrawTree)->Arg(1 << 10)->Arg(1 << 17)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// Without-replacement consumption (the TGAE support loop): TreeSampler
// draw, then zero the drawn leaf, until no mass remains.
// ---------------------------------------------------------------------------

void BM_WithoutReplacementTree(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<double> w = MakeWeights(n, 3);
  Rng rng(4);
  for (auto _ : state) {
    sampling::TreeSampler tree(w);
    while (tree.total() > 0.0) {
      size_t pick = tree.Draw(rng);
      benchmark::DoNotOptimize(pick);
      tree.Update(pick, 0.0);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_WithoutReplacementTree)->Arg(1 << 12)->Arg(1 << 14);

// ---------------------------------------------------------------------------
// Walk starts (TIGGER/TagGen per-walk path): the fitted alias table vs the
// pre-conversion InitialNodeSampler::Sample, which rebuilt the degree CDF
// on every call — O(occurrences) per walk start.
// ---------------------------------------------------------------------------

const graphs::InitialNodeSampler& StartSamplerFixture() {
  static const auto* sampler = [] {
    datasets::ScalabilityConfig cfg;
    cfg.num_nodes = 1 << 17;
    cfg.num_timestamps = 8;
    cfg.density = 5e-6;  // ~87k edges/snapshot, ~500k occurrences.
    static graphs::TemporalGraph g = datasets::MakeScalabilityGraph(cfg, 11);
    return new graphs::InitialNodeSampler(&g, /*time_window=*/2);
  }();
  return *sampler;
}

void BM_WalkStartsAlias(benchmark::State& state) {
  const graphs::InitialNodeSampler& starts = StartSamplerFixture();
  Rng rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(starts.Sample(1, rng));
  state.SetItemsProcessed(state.iterations());
  state.counters["occurrences"] =
      static_cast<double>(starts.occurrences().size());
}
BENCHMARK(BM_WalkStartsAlias);

void BM_WalkStartsCdfRebuildRef(benchmark::State& state) {
  const graphs::InitialNodeSampler& starts = StartSamplerFixture();
  const std::vector<double>& w = starts.weights();
  Rng rng(5);
  for (auto _ : state) {
    std::vector<double> cdf = MakeCdf(w);  // per-call rebuild, as shipped
    benchmark::DoNotOptimize(starts.occurrences()[CdfDraw(cdf, rng)]);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["occurrences"] =
      static_cast<double>(starts.occurrences().size());
}
BENCHMARK(BM_WalkStartsCdfRebuildRef);

// ---------------------------------------------------------------------------
// Method level: DYMOND, whose generation is pure activity-weighted node
// sampling — the cleanest edges/sec readout of the alias conversion at
// n >= 1e5 nodes. BM_DymondGenerate times the real fitted generator
// (including graph assembly and Finalize). The DrawLoop pair isolates the
// generation loop itself — identical single-edge emission on both sides,
// differing only in the draw — and is what the CI regression gate holds to
// the >= 5x acceptance ratio.
// ---------------------------------------------------------------------------

struct DymondFixture {
  graphs::TemporalGraph observed{1, 1};
  std::unique_ptr<baselines::TemporalGraphGenerator> gen;
  std::vector<double> activity;  // Degree(u) + 0.25, as DymondGenerator::Fit
  int64_t edges = 0;
};

const DymondFixture& GetDymondFixture(int n) {
  static auto* cache = new std::map<int, DymondFixture>;
  auto it = cache->find(n);
  if (it != cache->end()) return it->second;
  DymondFixture f;
  datasets::ScalabilityConfig cfg;
  cfg.num_nodes = n;
  cfg.num_timestamps = 8;
  // ~1.5M edges total regardless of n, so runs compare per-edge cost.
  cfg.density = 1.5e6 / 8.0 / (static_cast<double>(n) * n);
  f.observed = datasets::MakeScalabilityGraph(cfg, 13);
  f.edges = f.observed.num_edges();
  f.gen = std::move(eval::MakeGenerator("DYMOND").value());
  Rng rng(7);
  f.gen->Fit(f.observed, rng);
  graphs::StaticGraph whole =
      f.observed.SnapshotUpTo(f.observed.num_timestamps() - 1);
  f.activity.resize(static_cast<size_t>(n));
  for (graphs::NodeId u = 0; u < n; ++u)
    f.activity[static_cast<size_t>(u)] = whole.Degree(u) + 0.25;
  return (*cache)[n] = std::move(f);
}

void BM_DymondGenerate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const DymondFixture& f = GetDymondFixture(n);
  Rng rng(9);
  int64_t edges = 0;
  for (auto _ : state) {
    graphs::TemporalGraph out = f.gen->Generate(rng);
    edges = out.num_edges();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * edges);  // edges/sec
}
BENCHMARK(BM_DymondGenerate)->Arg(1 << 17)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

/// One DYMOND-style edge per item: activity draw for the source, distinct
/// activity draw for the destination, AddEdge. `draw` is the only thing
/// the two benchmarks below disagree on.
template <typename Draw>
void DymondDrawLoop(const DymondFixture& f, int n, int64_t edges, Rng& rng,
                    const Draw& draw) {
  graphs::TemporalGraph g(n, f.observed.num_timestamps());
  for (int64_t i = 0; i < edges; ++i) {
    auto a = static_cast<graphs::NodeId>(draw(rng));
    auto b = static_cast<graphs::NodeId>(draw(rng));
    for (int retry = 0; retry < 4 && b == a; ++retry)
      b = static_cast<graphs::NodeId>(draw(rng));
    if (b == a) b = static_cast<graphs::NodeId>((a + 1) % n);
    g.AddEdge(a, b, static_cast<graphs::Timestamp>(i & 7));
  }
  benchmark::DoNotOptimize(g);
}

void BM_DymondDrawLoopAlias(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const DymondFixture& f = GetDymondFixture(n);
  const sampling::AliasTable table(f.activity);
  Rng rng(9);
  for (auto _ : state)
    DymondDrawLoop(f, n, f.edges, rng,
                   [&](Rng& r) { return table.Draw(r); });
  state.SetItemsProcessed(state.iterations() * f.edges);
}
BENCHMARK(BM_DymondDrawLoopAlias)->Arg(1 << 17)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void BM_DymondDrawLoopCdfRef(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const DymondFixture& f = GetDymondFixture(n);
  const std::vector<double> cdf = MakeCdf(f.activity);
  Rng rng(9);
  for (auto _ : state)
    DymondDrawLoop(f, n, f.edges, rng,
                   [&](Rng& r) { return CdfDraw(cdf, r); });
  state.SetItemsProcessed(state.iterations() * f.edges);
}
BENCHMARK(BM_DymondDrawLoopCdfRef)->Arg(1 << 17)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Score-matrix edge sampling (NetGAN/VGAE/Graphite/SBMGNN path): includes
// the per-call alias build over the n^2 weights, so it reports the honest
// end-to-end cost of SampleEdgesFromScores.
// ---------------------------------------------------------------------------

void BM_ScoreEdgeSampling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int64_t count = state.range(1);
  Rng init(6);
  nn::Tensor scores(n, n);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c) scores.at(r, c) = init.Uniform();
  Rng rng(8);
  std::vector<graphs::TemporalEdge> out;
  for (auto _ : state) {
    out.clear();
    baselines::SampleEdgesFromScores(scores, count, 0, rng, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_ScoreEdgeSampling)->Args({512, 4096})->Args({512, 32768});

}  // namespace

BENCHMARK_MAIN();
