// Tests for the sampling layer (AliasTable / TreeSampler / WeightedPick):
// distribution agreement with the WeightedPick linear scan via chi-square,
// edge cases (single entry, zero-weight tails, denormal totals — mirroring
// the WeightedPick drift-guard regression), the weight validation that
// guards load-time alias rebuilds, and 1/2/8-thread determinism sweeps
// over every generation path that now runs on the new samplers.

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "config/param_map.h"
#include "datasets/synthetic.h"
#include "eval/registry.h"
#include "graph/ego_sampler.h"
#include "gtest/gtest.h"
#include "parallel/thread_pool.h"
#include "sampling/samplers.h"

namespace tgsim {
namespace {

using sampling::AliasTable;
using sampling::TreeSampler;
using sampling::WeightedPick;

/// Pearson chi-square statistic of `counts` against the distribution
/// proportional to `weights` (zero-weight buckets must be empty).
double ChiSquare(const std::vector<int64_t>& counts,
                 const std::vector<double>& weights) {
  double total_w = 0.0;
  int64_t total_c = 0;
  for (double w : weights) total_w += w;
  for (int64_t c : counts) total_c += c;
  double chi2 = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected =
        static_cast<double>(total_c) * weights[i] / total_w;
    if (expected == 0.0) {
      EXPECT_EQ(counts[i], 0) << "zero-weight bucket " << i << " was drawn";
      continue;
    }
    const double d = static_cast<double>(counts[i]) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

// ---------------------------------------------------------------------------
// AliasTable.
// ---------------------------------------------------------------------------

TEST(AliasTableTest, SingleEntryAlwaysWins) {
  std::vector<double> w = {3.5};
  AliasTable table(w);
  ASSERT_EQ(table.size(), 1u);
  Rng rng(1);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(table.Draw(rng), 0u);
}

TEST(AliasTableTest, ChiSquareAgreesWithWeightedPick) {
  // Same fixed distribution, 60k draws each through the alias table and
  // the linear-scan reference; both must sit inside a generous chi-square
  // bound (df = 5, p = 0.001 critical value ~20.5).
  const std::vector<double> w = {0.1, 2.0, 0.5, 3.3, 1e-3, 4.0};
  const int kDraws = 60000;
  AliasTable table(w);
  std::vector<int64_t> alias_counts(w.size(), 0);
  std::vector<int64_t> pick_counts(w.size(), 0);
  Rng rng_a(123), rng_b(123);
  for (int i = 0; i < kDraws; ++i) {
    ++alias_counts[table.Draw(rng_a)];
    ++pick_counts[WeightedPick(w, rng_b)];
  }
  EXPECT_LT(ChiSquare(alias_counts, w), 25.0);
  EXPECT_LT(ChiSquare(pick_counts, w), 25.0);
}

TEST(AliasTableTest, ZeroWeightTailsAreNeverDrawn) {
  // Zero slots get probability exactly 0 and alias into positive mass.
  const std::vector<double> w = {0.0, 3.0, 0.0, 1.0, 0.0, 0.0};
  AliasTable table(w);
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    size_t pick = table.Draw(rng);
    EXPECT_TRUE(pick == 1 || pick == 3) << "drew zero-weight slot " << pick;
  }
}

TEST(AliasTableTest, DenormalTotalStaysOnPositiveEntry) {
  // Mirror of the WeightedPick drift-guard regression: a denormal total
  // must still never surface a zero-weight index.
  const std::vector<double> w = {0.0, 1e-312};
  AliasTable table(w);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(table.Draw(rng), 1u);
}

TEST(AliasTableTest, RebuildFromSameWeightsIsDeterministic) {
  // The build is a pure function of the weights — the guarantee that lets
  // artifacts store only the weights and loaders rebuild bit-identical
  // samplers.
  const std::vector<double> w = {1.0, 0.5, 0.0, 8.0, 2.5};
  AliasTable a(w), b(w);
  EXPECT_EQ(a.prob(), b.prob());
  EXPECT_EQ(a.alias(), b.alias());
}

TEST(ValidateWeightsTest, AcceptsOnlyFiniteNonNegativeWeightsWithMass) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(sampling::ValidateWeights(std::vector<double>{0.0, 1.5}).ok());
  EXPECT_TRUE(sampling::ValidateWeights(std::vector<double>{1e-312}).ok());
  for (const std::vector<double>& bad :
       {std::vector<double>{}, std::vector<double>{0.0, 0.0},
        std::vector<double>{1.0, -0.5}, std::vector<double>{1.0, inf},
        std::vector<double>{nan, 1.0},
        // Finite entries whose total overflows to inf.
        std::vector<double>{1e308, 1e308}}) {
    EXPECT_EQ(sampling::ValidateWeights(bad).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(AliasTableDeathTest, ZeroTotalMassIsAProgrammingError) {
  std::vector<double> w = {0.0, 0.0};
  EXPECT_DEATH({ AliasTable table(w); }, "");
}

// ---------------------------------------------------------------------------
// TreeSampler.
// ---------------------------------------------------------------------------

TEST(TreeSamplerTest, SingleEntryAlwaysWins) {
  std::vector<double> w = {0.75};
  TreeSampler tree(w);
  Rng rng(1);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(tree.Draw(rng), 0u);
}

TEST(TreeSamplerTest, ChiSquareAgreesWithWeights) {
  const std::vector<double> w = {0.1, 2.0, 0.5, 3.3, 1e-3, 4.0};
  const int kDraws = 60000;
  TreeSampler tree(w);
  std::vector<int64_t> counts(w.size(), 0);
  Rng rng(321);
  for (int i = 0; i < kDraws; ++i) ++counts[tree.Draw(rng)];
  EXPECT_LT(ChiSquare(counts, w), 25.0);
}

TEST(TreeSamplerTest, WithoutReplacementConsumesExactlyThePositiveSupport) {
  // Draw + zero-out until the mass is gone: every positive-weight index
  // must appear exactly once, no zero-weight index ever, and the total
  // must reach exactly 0.0 (child sums are recomputed exactly) — the loop
  // the TGAE generation path runs.
  std::vector<double> w(37, 0.0);
  std::set<size_t> positive;
  Rng init(5);
  for (size_t i = 0; i < w.size(); ++i) {
    if (i % 3 == 0) continue;  // leave zero-weight holes
    w[i] = init.Uniform(0.25, 4.0);
    positive.insert(i);
  }
  TreeSampler tree(w);
  Rng rng(9);
  std::set<size_t> drawn;
  while (tree.total() > 0.0) {
    size_t pick = tree.Draw(rng);
    EXPECT_TRUE(positive.count(pick)) << "drew zero-weight leaf " << pick;
    EXPECT_TRUE(drawn.insert(pick).second) << "repeated leaf " << pick;
    tree.Update(pick, 0.0);
  }
  EXPECT_EQ(tree.total(), 0.0);  // exact, no epsilon
  EXPECT_EQ(drawn, positive);
}

TEST(TreeSamplerTest, UpdateRestoresConsumedMass) {
  std::vector<double> w = {1.0, 2.0, 3.0};
  TreeSampler tree(w);
  tree.Update(1, 0.0);
  tree.Update(2, 0.0);
  Rng rng(11);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(tree.Draw(rng), 0u);
  tree.Update(2, 5.0);
  EXPECT_EQ(tree.weight(2), 5.0);
  EXPECT_EQ(tree.total(), 6.0);
  bool saw2 = false;
  for (int i = 0; i < 256 && !saw2; ++i) saw2 = tree.Draw(rng) == 2;
  EXPECT_TRUE(saw2);
}

TEST(TreeSamplerTest, DenormalTotalStaysOnPositiveEntry) {
  std::vector<double> w = {0.0, 1e-312};
  TreeSampler tree(w);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(tree.Draw(rng), 1u);
}

TEST(TreeSamplerDeathTest, DrawFromConsumedTreeIsAProgrammingError) {
  std::vector<double> w = {1.0};
  TreeSampler tree(w);
  tree.Update(0, 0.0);
  Rng rng(1);
  EXPECT_DEATH({ tree.Draw(rng); }, "");
}

// ---------------------------------------------------------------------------
// WeightedPick (the one linear-scan weighted draw).
// ---------------------------------------------------------------------------

TEST(WeightedPickTest, FollowsWeights) {
  Rng rng(8);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> seen(3, 0);
  for (int i = 0; i < 8000; ++i) ++seen[WeightedPick(w, rng)];
  EXPECT_EQ(seen[1], 0);
  EXPECT_NEAR(static_cast<double>(seen[2]) / seen[0], 3.0, 0.5);
}

TEST(WeightedPickTest, DriftGuardFallsToLastPositiveWeight) {
  // With a min-denormal total, r = Uniform() * total rounds up to exactly
  // `total` about half the time, so the accumulation loop falls through to
  // the floating-point drift guard. The guard must return the last
  // *positive*-weight index — a zero-weight entry marks a slot the caller
  // already consumed (the without-replacement loops in generation), and
  // returning it emits a duplicate edge.
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<std::pair<std::vector<double>, size_t>> cases = {
      {{0.0, denorm, 0.0}, 1u},
      {{denorm, 0.0}, 0u},
      {{0.0, denorm, 0.0, 0.0}, 1u},
  };
  for (const auto& [w, want] : cases) {
    Rng rng(1);
    for (int i = 0; i < 200; ++i)
      EXPECT_EQ(WeightedPick(w, rng), want) << "draw " << i;
  }
}

// ---------------------------------------------------------------------------
// InitialNodeSampler: the graph-built and the weight-rebuilt constructors
// draw the same stream.
// ---------------------------------------------------------------------------

TEST(SamplingInitialNodeSamplerTest, AllConstructorsDrawIdentically) {
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.03, 8);
  graphs::InitialNodeSampler from_graph(&g, /*time_window=*/2);
  graphs::InitialNodeSampler from_data(from_graph.occurrences(),
                                       from_graph.weights());
  Rng rng_a(2), rng_b(2);
  std::vector<graphs::TemporalNodeRef> a = from_graph.Sample(3000, rng_a);
  std::vector<graphs::TemporalNodeRef> b = from_data.Sample(3000, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(a[i] == b[i]) << "draw " << i;
}

// ---------------------------------------------------------------------------
// Determinism sweep: every generation path converted to the new samplers
// stays bit-identical at 1, 2 and 8 threads.
// ---------------------------------------------------------------------------

struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() {
    parallel::ThreadPool::SetGlobalThreads(
        parallel::ThreadPool::DefaultNumThreads());
  }
};

class SamplerPathSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SamplerPathSweepTest, GenerationIsThreadCountInvariant) {
  const std::string method = GetParam();
  graphs::TemporalGraph observed = datasets::MakeMimicByName("DBLP", 0.03, 4);
  auto run = [&] {
    config::ParamMap params;
    params.Override("preset", "fast");
    auto built = eval::MakeGenerator(method, params);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    std::unique_ptr<baselines::TemporalGraphGenerator> gen =
        std::move(built).value();
    Rng rng(31);
    gen->Fit(observed, rng);
    return gen->Generate(rng).edges();
  };
  GlobalThreadsGuard guard;
  std::vector<std::vector<graphs::TemporalEdge>> results;
  for (int threads : {1, 2, 8}) {
    parallel::ThreadPool::SetGlobalThreads(threads);
    results.push_back(run());
  }
  for (size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[0].size(), results[v].size()) << "variant " << v;
    for (size_t i = 0; i < results[0].size(); ++i)
      ASSERT_TRUE(results[0][i] == results[v][i])
          << "variant " << v << " edge " << i;
  }
}

// One method per converted draw path: alias-table starts + row-span picks
// (TIGGER), alias starts + DotSum2 transition (TagGen), row-span soft
// walks (TGGAN), alias activity motifs (DYMOND), alias score-matrix edges
// (NetGAN, shared by all score methods), and tree-sampler support draws
// (TGAE fast = sparse decoder; the dense path shares the same samplers by
// the sparse-vs-dense pin).
INSTANTIATE_TEST_SUITE_P(ConvertedPaths, SamplerPathSweepTest,
                         ::testing::Values("TIGGER", "TagGen", "TGGAN",
                                           "DYMOND", "NetGAN", "TGAE"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace tgsim
