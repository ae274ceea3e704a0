#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "gtest/gtest.h"

namespace tgsim {
namespace {

// ---------------------------------------------------------------------------
// Rng.
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.UniformInt(1000) == b.UniformInt(1000)) ++same;
  EXPECT_LT(same, 10);
}

TEST(RngTest, UniformIsInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(5);
  std::vector<int> seen(4, 0);
  for (int i = 0; i < 4000; ++i) ++seen[rng.UniformInt(4)];
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 expected.
}

TEST(RngTest, NormalHasApproxUnitMoments) {
  Rng rng(6);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int64_t> s = rng.SampleWithoutReplacement(20, 10);
    EXPECT_EQ(s.size(), 10u);
    std::sort(s.begin(), s.end());
    EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
    EXPECT_GE(s.front(), 0);
    EXPECT_LT(s.back(), 20);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(10);
  std::vector<int64_t> s = rng.SampleWithoutReplacement(5, 5);
  std::sort(s.begin(), s.end());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(s[static_cast<size_t>(i)], i);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ParetoIsAtLeastOne) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.Pareto(1.5), 1.0);
}

TEST(RngTest, SameSeedSameStreamAcrossAllHelpers) {
  // Determinism must hold for every sampling helper, not just Uniform():
  // interleaving draws exercises the shared engine state.
  Rng a(77), b(77);
  for (int i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
    EXPECT_DOUBLE_EQ(a.Uniform(-3.0, 3.0), b.Uniform(-3.0, 3.0));
    EXPECT_EQ(a.UniformInt(1000), b.UniformInt(1000));
    EXPECT_EQ(a.UniformInt(-5, 5), b.UniformInt(-5, 5));
    EXPECT_DOUBLE_EQ(a.Normal(), b.Normal());
    EXPECT_DOUBLE_EQ(a.Normal(2.0, 0.5), b.Normal(2.0, 0.5));
    EXPECT_EQ(a.Bernoulli(0.4), b.Bernoulli(0.4));
    EXPECT_DOUBLE_EQ(a.Pareto(2.5), b.Pareto(2.5));
    EXPECT_EQ(a.SampleWithoutReplacement(30, 7),
              b.SampleWithoutReplacement(30, 7));
  }
  std::vector<int> va = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> vb = va;
  a.Shuffle(va);
  b.Shuffle(vb);
  EXPECT_EQ(va, vb);
}

TEST(RngTest, SplitIsDeterministicGivenParentSeed) {
  Rng a(21), b(21);
  std::vector<Rng> ca = a.Split(4);
  std::vector<Rng> cb = b.Split(4);
  ASSERT_EQ(ca.size(), 4u);
  for (size_t i = 0; i < ca.size(); ++i)
    for (int d = 0; d < 50; ++d)
      EXPECT_DOUBLE_EQ(ca[i].Uniform(), cb[i].Uniform());
}

TEST(RngTest, SplitChildrenAreMutuallyIndependent) {
  Rng parent(22);
  std::vector<Rng> kids = parent.Split(3);
  // No pair of child streams (nor the parent's continued stream) may be
  // replays of each other.
  std::vector<std::vector<int64_t>> streams;
  for (Rng& k : kids) {
    std::vector<int64_t> s;
    for (int d = 0; d < 50; ++d) s.push_back(k.UniformInt(1 << 30));
    streams.push_back(std::move(s));
  }
  std::vector<int64_t> ps;
  for (int d = 0; d < 50; ++d) ps.push_back(parent.UniformInt(1 << 30));
  streams.push_back(std::move(ps));
  for (size_t i = 0; i < streams.size(); ++i)
    for (size_t j = i + 1; j < streams.size(); ++j)
      EXPECT_NE(streams[i], streams[j]);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(13);
  Rng child = a.Fork();
  // The fork must not replay the parent's stream.
  Rng b(13);
  b.Fork();
  EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  double c1 = child.Uniform();
  double p1 = a.Uniform();
  EXPECT_NE(c1, p1);
}

// ---------------------------------------------------------------------------
// Status / Result.
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IoError: disk on fire");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, WorksWithMoveOnlyValueAccess) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

// ---------------------------------------------------------------------------
// MemoryTracker.
// ---------------------------------------------------------------------------

TEST(MemoryTrackerTest, TracksAllocateRelease) {
  MemoryTracker t;
  t.Allocate(100);
  t.Allocate(50);
  EXPECT_EQ(t.CurrentBytes(), 150);
  t.Release(100);
  EXPECT_EQ(t.CurrentBytes(), 50);
  EXPECT_GE(t.PeakBytes(), 150);
}

TEST(MemoryTrackerTest, PeakResetsToCurrent) {
  MemoryTracker t;
  t.Allocate(100);
  t.Release(100);
  t.Allocate(10);
  t.ResetPeak();
  EXPECT_EQ(t.PeakBytes(), 10);
  t.Allocate(5);
  EXPECT_EQ(t.PeakBytes(), 15);
}

TEST(MemoryTrackerTest, ConcurrentUpdatesAreConsistent) {
  MemoryTracker t;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&t]() {
      for (int j = 0; j < 1000; ++j) {
        t.Allocate(8);
        t.Release(8);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.CurrentBytes(), 0);
}

TEST(MemoryUsageScopeTest, ObservesTensorAllocations) {
  MemoryUsageScope scope;
  EXPECT_GE(scope.PeakBytes(), 0);
  EXPECT_GE(scope.PeakMiB(), 0.0);
}

// ---------------------------------------------------------------------------
// Stopwatch & checks.
// ---------------------------------------------------------------------------

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  double t1 = w.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GE(w.ElapsedSeconds(), t1);
  w.Restart();
  EXPECT_LT(w.ElapsedMillis(), 1000.0);
}

TEST(CheckDeathTest, FailedCheckAborts) {
  EXPECT_DEATH(TGSIM_CHECK(1 == 2), "CHECK failed");
  EXPECT_DEATH(TGSIM_CHECK_EQ(3, 4), "CHECK failed");
  EXPECT_DEATH(TGSIM_CHECK_LT(5, 5), "CHECK failed");
}

TEST(CheckDeathTest, EveryComparisonMacroAborts) {
  EXPECT_DEATH(TGSIM_CHECK_NE(7, 7), "CHECK failed");
  EXPECT_DEATH(TGSIM_CHECK_LE(6, 5), "CHECK failed");
  EXPECT_DEATH(TGSIM_CHECK_GT(5, 5), "CHECK failed");
  EXPECT_DEATH(TGSIM_CHECK_GE(4, 5), "CHECK failed");
}

TEST(CheckDeathTest, DiagnosticNamesFileAndExpression) {
  // The failure path must identify where and what failed, or debugging a
  // production abort is hopeless.
  EXPECT_DEATH(TGSIM_CHECK(2 + 2 == 5), "common_test");
  EXPECT_DEATH(TGSIM_CHECK(2 + 2 == 5), "2 \\+ 2 == 5");
}

TEST(CheckDeathTest, RngPreconditionsUseCheckPath) {
  // Library preconditions route through the same failure path.
  Rng rng(1);
  EXPECT_DEATH(rng.UniformInt(0), "CHECK failed");
  EXPECT_DEATH(rng.UniformInt(3, 2), "CHECK failed");
}

#ifdef NDEBUG
TEST(CheckTest, DcheckIsCompiledOutInReleaseBuilds) {
  TGSIM_DCHECK(false);  // Must not abort when NDEBUG is defined.
  SUCCEED();
}
#else
TEST(CheckDeathTest, DcheckAbortsInDebugBuilds) {
  EXPECT_DEATH(TGSIM_DCHECK(false), "CHECK failed");
}
#endif

TEST(CheckTest, PassingChecksAreSilent) {
  TGSIM_CHECK(true);
  TGSIM_CHECK_EQ(1, 1);
  TGSIM_CHECK_GE(2, 1);
  SUCCEED();
}

}  // namespace
}  // namespace tgsim
