// Tests for the tgsim_parallel runtime: ThreadPool lifecycle, the
// ParallelFor / ParallelReduce chunking contracts, exception propagation,
// and the determinism sweep asserting bit-identical Tensor / metric / eval
// outputs at 1, 2 and 8 threads.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/tgae.h"
#include "datasets/synthetic.h"
#include "eval/runner.h"
#include "gtest/gtest.h"
#include "metrics/degree_mmd.h"
#include "metrics/motifs.h"
#include "nn/autograd.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "parallel/parallel_for.h"
#include "parallel/task_queue.h"
#include "parallel/thread_pool.h"

namespace tgsim {
namespace {

using parallel::NumChunks;
using parallel::ParallelFor;
using parallel::ParallelReduce;
using parallel::ThreadPool;

/// Restores the global pool to its default size when a test that resizes
/// it goes out of scope.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() {
    ThreadPool::SetGlobalThreads(ThreadPool::DefaultNumThreads());
  }
};

/// Runs `fn` with the global pool resized to each of {1, 2, 8} and returns
/// the per-thread-count results.
template <typename Fn>
auto SweepThreadCounts(Fn&& fn) {
  GlobalThreadsGuard guard;
  std::vector<decltype(fn())> results;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    results.push_back(fn());
  }
  return results;
}

bool BitIdentical(const nn::Tensor& a, const nn::Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(nn::Scalar)) == 0;
}

// ---------------------------------------------------------------------------
// ThreadPool lifecycle.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, StartupAndShutdownAcrossSizes) {
  for (int n : {1, 2, 3, 8}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
  }  // Destructor joins; reaching the next iteration is the assertion.
}

TEST(ThreadPoolTest, RepeatedConstructionIsCheapAndClean) {
  for (int i = 0; i < 16; ++i) ThreadPool pool(4);
}

TEST(ThreadPoolTest, RunChunksExecutesEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kChunks = 200;
  std::vector<std::atomic<int>> hits(kChunks);
  for (auto& h : hits) h.store(0);
  pool.RunChunks(kChunks, [&](int64_t c) { hits[static_cast<size_t>(c)]++; });
  for (int64_t c = 0; c < kChunks; ++c)
    EXPECT_EQ(hits[static_cast<size_t>(c)].load(), 1) << "chunk " << c;
}

TEST(ThreadPoolTest, RunChunksWithNonPositiveCountIsANoOp) {
  ThreadPool pool(2);
  int calls = 0;
  pool.RunChunks(0, [&](int64_t) { ++calls; });
  pool.RunChunks(-5, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsSerially) {
  ThreadPool pool(1);
  std::vector<int64_t> order;
  pool.RunChunks(10, [&](int64_t c) { order.push_back(c); });
  std::vector<int64_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // Serial fallback preserves chunk order.
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  for (int n : {1, 4}) {
    ThreadPool pool(n);
    EXPECT_THROW(pool.RunChunks(50,
                                [](int64_t c) {
                                  if (c == 17)
                                    throw std::runtime_error("chunk 17");
                                }),
                 std::runtime_error);
    // The pool survives a failed region and keeps working.
    std::atomic<int64_t> sum{0};
    pool.RunChunks(10, [&](int64_t c) { sum += c; });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPoolDeathTest, ZeroThreadsAborts) {
  EXPECT_DEATH(ThreadPool pool(0), "CHECK failed");
}

TEST(ThreadPoolTest, DefaultNumThreadsHonorsEnvOverride) {
  const char* saved = std::getenv("TGSIM_NUM_THREADS");
  std::string saved_value = saved ? saved : "";
  setenv("TGSIM_NUM_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 3);
  setenv("TGSIM_NUM_THREADS", "999999", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 1024);  // Clamped.
  setenv("TGSIM_NUM_THREADS", "0", 1);  // Numeric: clamped up to serial.
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 1);
  setenv("TGSIM_NUM_THREADS", "-4", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 1);
  setenv("TGSIM_NUM_THREADS", "garbage", 1);  // Non-numeric: hw fallback.
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
  if (saved)
    setenv("TGSIM_NUM_THREADS", saved_value.c_str(), 1);
  else
    unsetenv("TGSIM_NUM_THREADS");
}

// ---------------------------------------------------------------------------
// ParallelFor / ParallelReduce chunking contracts.
// ---------------------------------------------------------------------------

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  int calls = 0;
  ParallelFor(0, 0, 4, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(7, 7, 4, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(9, 3, 4, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, RangeSmallerThanGrainRunsInlineWithExactBounds) {
  int calls = 0;
  int64_t seen_begin = -1, seen_end = -1;
  ParallelFor(3, 9, 100, [&](int64_t b, int64_t e) {
    ++calls;
    seen_begin = b;
    seen_end = e;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_begin, 3);
  EXPECT_EQ(seen_end, 9);
}

TEST(ParallelForTest, NonPositiveGrainIsClampedToOne) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(2);
  std::vector<std::atomic<int>> hits(10);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, 10, 0, [&](int64_t b, int64_t e) {
    EXPECT_EQ(e, b + 1);  // grain clamped to 1 => unit chunks.
    hits[static_cast<size_t>(b)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ChunksTileTheRangeExactlyOnce) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(8);
  constexpr int64_t kBegin = 13, kEnd = 1013, kGrain = 37;
  std::vector<std::atomic<int>> visits(kEnd);
  for (auto& v : visits) v.store(0);
  ParallelFor(kBegin, kEnd, kGrain, [&](int64_t b, int64_t e) {
    ASSERT_LE(kBegin, b);
    ASSERT_LE(b, e);
    ASSERT_LE(e, kEnd);
    ASSERT_LE(e - b, kGrain);
    for (int64_t i = b; i < e; ++i) visits[static_cast<size_t>(i)]++;
  });
  for (int64_t i = kBegin; i < kEnd; ++i)
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
}

TEST(ParallelForTest, NestedRegionsDoNotDeadlock) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  std::atomic<int64_t> total{0};
  ParallelFor(0, 8, 1, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o)
      ParallelFor(0, 100, 10,
                  [&](int64_t b, int64_t e) { total += e - b; });
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ParallelForTest, ExceptionInBodyPropagates) {
  GlobalThreadsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  EXPECT_THROW(ParallelFor(0, 100, 1,
                           [](int64_t b, int64_t) {
                             if (b == 42) throw std::logic_error("boom");
                           }),
               std::logic_error);
}

TEST(ParallelReduceTest, SumsMatchClosedForm) {
  GlobalThreadsGuard guard;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    int64_t sum = ParallelReduce<int64_t>(
        0, 10001, 17, int64_t{0},
        [](int64_t b, int64_t e) {
          int64_t s = 0;
          for (int64_t i = b; i < e; ++i) s += i;
          return s;
        },
        [](int64_t a, int64_t b) { return a + b; });
    EXPECT_EQ(sum, 10001LL * 10000 / 2) << "threads=" << threads;
  }
}

TEST(ParallelReduceTest, CombinesInAscendingChunkOrder) {
  auto results = SweepThreadCounts([] {
    return ParallelReduce<std::string>(
        0, 26, 5, std::string(),
        [](int64_t b, int64_t e) {
          std::string s;
          for (int64_t i = b; i < e; ++i)
            s.push_back(static_cast<char>('a' + i));
          return s;
        },
        [](std::string acc, std::string part) { return acc + part; });
  });
  for (const std::string& r : results)
    EXPECT_EQ(r, "abcdefghijklmnopqrstuvwxyz");
}

TEST(ParallelReduceTest, EmptyRangeReturnsInit) {
  double r = ParallelReduce<double>(
      5, 5, 3, 1.5, [](int64_t, int64_t) { return 100.0; },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(r, 1.5);
}

// ---------------------------------------------------------------------------
// Determinism sweep: identical Tensor / metric / eval outputs at 1, 2, 8
// threads.
// ---------------------------------------------------------------------------

TEST(DeterminismSweepTest, TensorKernelsAreThreadCountInvariant) {
  auto results = SweepThreadCounts([] {
    Rng rng(11);
    nn::Tensor a = nn::Tensor::Randn(rng, 301, 257);
    nn::Tensor b = nn::Tensor::Randn(rng, 257, 129);
    nn::Tensor mm = a.MatMul(b);
    nn::Tensor t = a.Transpose();
    nn::Tensor cw = a.CwiseMul(a);
    nn::Tensor sm = mm.SoftmaxRows();
    nn::Tensor sum = a;
    sum.Axpy(0.25, cw);
    std::vector<nn::Tensor> out;
    out.push_back(std::move(mm));
    out.push_back(std::move(t));
    out.push_back(std::move(cw));
    out.push_back(std::move(sm));
    out.push_back(std::move(sum));
    return out;
  });
  for (size_t v = 1; v < results.size(); ++v)
    for (size_t i = 0; i < results[0].size(); ++i)
      EXPECT_TRUE(BitIdentical(results[0][i], results[v][i]))
          << "variant " << v << " tensor " << i;
}

TEST(DeterminismSweepTest, SegmentOpsAreThreadCountInvariant) {
  auto run = [] {
    Rng rng(12);
    const int edges = 5000, segments = 400;
    nn::Var scores = nn::Var::Param(nn::Tensor::Randn(rng, edges, 1));
    nn::Var feats = nn::Var::Param(nn::Tensor::Randn(rng, edges, 16));
    std::vector<int> seg(edges);
    for (int i = 0; i < edges; ++i)
      seg[static_cast<size_t>(i)] =
          static_cast<int>(rng.UniformInt(segments));
    nn::Var alpha = nn::SegmentSoftmax(scores, seg, segments);
    nn::Var agg =
        nn::SegmentSum(nn::MulColBroadcast(feats, alpha), seg, segments);
    nn::Var loss = nn::Sum(agg);
    nn::Backward(loss);
    std::vector<nn::Tensor> out;
    out.push_back(alpha.value());
    out.push_back(agg.value());
    out.push_back(scores.grad());
    out.push_back(feats.grad());
    return out;
  };
  auto results = SweepThreadCounts(run);
  for (size_t v = 1; v < results.size(); ++v)
    for (size_t i = 0; i < results[0].size(); ++i)
      EXPECT_TRUE(BitIdentical(results[0][i], results[v][i]))
          << "variant " << v << " tensor " << i;
}

TEST(DeterminismSweepTest, DenseLossIsThreadCountInvariant) {
  // 300 rows of 257 logits span three RowGrain chunks, so the fused
  // loss's parallel log-normalizer and backward passes (and the Affine
  // decode feeding them) are split differently at each thread count.
  auto run = [] {
    Rng rng(13);
    const int rows = 300, cols = 257, d = 16;
    nn::Var h = nn::Var::Param(nn::Tensor::Randn(rng, rows, d));
    nn::Var w = nn::Var::Param(nn::Tensor::Randn(rng, d, cols));
    nn::Var b = nn::Var::Param(nn::Tensor::Randn(rng, 1, cols));
    nn::SparseRowTargets targets;
    for (int r = 0; r < rows; ++r) {
      const int count = r % 7;  // Every seventh row is empty.
      for (int k = 0; k < count; ++k)
        targets.AppendEntry((r * 31 + k * 37) % cols, 1.0 / count);
      targets.FinishRow();
    }
    nn::Var logits = nn::Affine(h, w, b);
    nn::Var loss = nn::RowCrossEntropyWithLogits(logits, targets);
    nn::Backward(loss);
    std::vector<nn::Tensor> out;
    out.push_back(loss.value());
    out.push_back(logits.grad());
    out.push_back(h.grad());
    out.push_back(w.grad());
    out.push_back(b.grad());
    return out;
  };
  auto results = SweepThreadCounts(run);
  for (size_t v = 1; v < results.size(); ++v)
    for (size_t i = 0; i < results[0].size(); ++i)
      EXPECT_TRUE(BitIdentical(results[0][i], results[v][i]))
          << "variant " << v << " tensor " << i;
}

TEST(DeterminismSweepTest, MetricsAreThreadCountInvariant) {
  graphs::TemporalGraph real = datasets::MakeMimicByName("DBLP", 0.03, 5);
  graphs::TemporalGraph gen = datasets::MakeMimicByName("DBLP", 0.03, 9);
  auto results = SweepThreadCounts([&] {
    std::vector<double> vals;
    vals.push_back(metrics::DegreeMmd(real, gen, 1.0, 50, 2));
    vals.push_back(metrics::MotifMmd(real, gen, 3, 1.0, 20000));
    vals.push_back(metrics::MotifMmd(real, gen, 3, 1.0, -1));
    return vals;
  });
  for (size_t v = 1; v < results.size(); ++v)
    for (size_t i = 0; i < results[0].size(); ++i)
      EXPECT_EQ(results[0][i], results[v][i])  // Bit-identical doubles.
          << "variant " << v << " value " << i;
}

TEST(DeterminismSweepTest, MotifCensusCapMatchesSerialPrefix) {
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.03, 7);
  // Caps chosen to land mid-chunk, at a chunk boundary, and beyond the
  // total census.
  for (int64_t cap : {1, 100, 1137, 100000000}) {
    auto results = SweepThreadCounts(
        [&] { return metrics::CountTemporalMotifs(g, 3, cap); });
    for (size_t v = 1; v < results.size(); ++v) {
      EXPECT_EQ(results[0].total, results[v].total) << "cap " << cap;
      EXPECT_EQ(results[0].counts, results[v].counts) << "cap " << cap;
    }
  }
}

TEST(DeterminismSweepTest, TgaeFitAndGenerateAreThreadCountInvariant) {
  // End-to-end sweep over TGAE in both training configurations: the
  // candidate-set loss of preset=fast (GatherCols decode) and the dense
  // n-wide loss of preset=paper (Affine decode), both scored by
  // RowCrossEntropyWithLogits. Training and the support-column
  // generation must produce bit-identical losses and edge lists at any
  // thread count, per the parallel contract.
  graphs::TemporalGraph observed = datasets::MakeMimicByName("DBLP", 0.04, 4);
  for (bool sparse : {true, false}) {
    SCOPED_TRACE(sparse ? "sparse_decoder=true" : "sparse_decoder=false");
    auto run = [&] {
      core::TgaeConfig cfg;
      cfg.epochs = 2;
      cfg.batch_centers = 8;
      cfg.sparse_decoder = sparse;
      cfg.negative_samples = 16;
      core::TgaeGenerator gen(cfg);
      Rng rng(21);
      gen.Fit(observed, rng);
      graphs::TemporalGraph out = gen.Generate(rng);
      return std::make_pair(gen.last_epoch_loss(), out.edges());
    };
    auto results = SweepThreadCounts(run);
    for (size_t v = 1; v < results.size(); ++v) {
      EXPECT_EQ(results[0].first, results[v].first)  // Bit-identical loss.
          << "variant " << v;
      ASSERT_EQ(results[0].second.size(), results[v].second.size())
          << "variant " << v;
      for (size_t i = 0; i < results[0].second.size(); ++i)
        ASSERT_TRUE(results[0].second[i] == results[v].second[i])
            << "variant " << v << " edge " << i;
    }
  }
}

TEST(DeterminismSweepTest, EvalCellsAreThreadCountInvariant) {
  graphs::TemporalGraph observed = datasets::MakeMimicByName("DBLP", 0.03, 3);
  auto run = [&] {
    std::vector<eval::RunCell> cells;
    for (const char* method : {"E-R", "B-A", "E-R"}) {
      eval::RunCell cell;
      cell.method = method;
      cell.observed = &observed;
      cell.options.preset = "fast";
      cell.options.compute_motif_mmd = true;
      cell.options.motif_max_triples = 20000;
      cells.push_back(std::move(cell));
    }
    return std::move(eval::RunCells(cells, 1234)).value();
  };
  auto results = SweepThreadCounts(run);
  for (size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[0].size(), results[v].size());
    for (size_t i = 0; i < results[0].size(); ++i) {
      const eval::RunResult& a = results[0][i];
      const eval::RunResult& b = results[v][i];
      EXPECT_EQ(a.method, b.method);
      EXPECT_EQ(a.oom, b.oom);
      EXPECT_EQ(a.motif_mmd, b.motif_mmd) << "cell " << i;
      // MemoryUsageScope measures per-thread growth deltas, so peak memory
      // must not depend on which thread a cell lands on.
      EXPECT_EQ(a.peak_mib, b.peak_mib) << "cell " << i;
      ASSERT_EQ(a.scores.size(), b.scores.size());
      for (size_t m = 0; m < a.scores.size(); ++m) {
        EXPECT_EQ(a.scores[m].avg, b.scores[m].avg)
            << "cell " << i << " metric " << m;
        EXPECT_EQ(a.scores[m].med, b.scores[m].med)
            << "cell " << i << " metric " << m;
      }
    }
  }
}

TEST(RunCellsTest, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(eval::RunCells({}, 7).value().empty());
}

TEST(RunCellsTest, SplitStreamsMakeRepeatedCellsIndependent) {
  graphs::TemporalGraph observed = datasets::MakeMimicByName("DBLP", 0.03, 3);
  std::vector<eval::RunCell> cells(2);
  for (auto& cell : cells) {
    cell.method = "E-R";
    cell.observed = &observed;
    cell.options.preset = "fast";
  }
  std::vector<eval::RunResult> results =
      std::move(eval::RunCells(cells, 99)).value();
  ASSERT_EQ(results.size(), 2u);
  // Same method, same dataset, but distinct Rng::Split children: the two
  // runs should not produce byte-identical score vectors.
  bool any_difference = false;
  for (size_t m = 0; m < results[0].scores.size(); ++m)
    any_difference = any_difference ||
                     results[0].scores[m].avg != results[1].scores[m].avg;
  EXPECT_TRUE(any_difference);
}

TEST(RunCellsTest, PerCellSeedIsIgnored) {
  // The documented RunCells contract: cell randomness comes exclusively
  // from Rng(master_seed).Split, so per-cell RunOptions::seed must not
  // change anything.
  graphs::TemporalGraph observed = datasets::MakeMimicByName("DBLP", 0.03, 3);
  auto run = [&](uint64_t per_cell_seed) {
    std::vector<eval::RunCell> cells(2);
    for (size_t i = 0; i < cells.size(); ++i) {
      cells[i].method = i == 0 ? "E-R" : "B-A";
      cells[i].observed = &observed;
      cells[i].options.preset = "fast";
      cells[i].options.seed = per_cell_seed;
    }
    return std::move(eval::RunCells(cells, 4321)).value();
  };
  std::vector<eval::RunResult> defaults = run(7);
  std::vector<eval::RunResult> custom = run(987654321);
  ASSERT_EQ(defaults.size(), custom.size());
  for (size_t i = 0; i < defaults.size(); ++i) {
    ASSERT_EQ(defaults[i].scores.size(), custom[i].scores.size());
    for (size_t m = 0; m < defaults[i].scores.size(); ++m) {
      EXPECT_EQ(defaults[i].scores[m].avg, custom[i].scores[m].avg);
      EXPECT_EQ(defaults[i].scores[m].med, custom[i].scores[m].med);
    }
  }
}

TEST(RunCellsTest, InvalidCellFailsWholeBatchUpFront) {
  graphs::TemporalGraph observed = datasets::MakeMimicByName("DBLP", 0.03, 3);
  std::vector<eval::RunCell> cells(2);
  cells[0].method = "E-R";
  cells[0].observed = &observed;
  cells[1].method = "NoSuchMethod";
  cells[1].observed = &observed;
  Result<std::vector<eval::RunResult>> result = eval::RunCells(cells, 7);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("cell 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Dense MatMul equivalence: the tiled parallel kernel must match a naive
// triple-loop reference bit for bit, on the scalar and the active kernel
// backend at 1, 2 and 8 threads, including on inputs dense with exact
// zeros (an old kernel special-cased a == 0) and on signed zeros,
// denormals and +/-1e150.
// ---------------------------------------------------------------------------

nn::Tensor ReferenceMatMul(const nn::Tensor& a, const nn::Tensor& b) {
  nn::Tensor out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < b.cols(); ++j) {
      nn::Scalar acc = 0.0;
      for (int k = 0; k < a.cols(); ++k) acc += a.at(i, k) * b.at(k, j);
      out.at(i, j) = acc;
    }
  return out;
}

/// Gaussian entries with every third slot a signed zero, a denormal or
/// +/-1e150 (small enough that no product or sum overflows).
nn::Tensor RandnWithSpecials(Rng& rng, int rows, int cols) {
  constexpr nn::Scalar kSpecials[] = {0.0,  -0.0,   5e-324,
                                      -5e-324, 1e150, -1e150};
  nn::Tensor t = nn::Tensor::Randn(rng, rows, cols);
  for (int64_t i = 0; i < t.size(); i += 3)
    t.data()[i] = kSpecials[(i / 3) % 6];
  return t;
}

TEST(BlockedMatMulTest, MatchesReferenceOnDenseAndSparseInputs) {
  GlobalThreadsGuard guard;
  Rng rng(21);
  std::vector<std::tuple<int, int, int>> shapes = {
      {1, 1, 1}, {3, 7, 5}, {65, 33, 129}, {130, 70, 95},
      // Under the per-panel work threshold, so one inline panel of 100
      // rows; over it, so several panels (32 and 56 rows) deep enough to
      // cross the 256-deep k-block.
      {100, 32, 33}, {200, 257, 33}, {130, 513, 9}};
  for (int rows = 1; rows <= 9; ++rows)
    for (int k : {0, 1, 255, 256, 257, 513})
      for (int n : {1, 3, 4, 7, 8, 9, 13, 33}) shapes.emplace_back(rows, k, n);
  for (auto [m, k, n] : shapes) {
    nn::Tensor a = RandnWithSpecials(rng, m, k);
    nn::Tensor b = RandnWithSpecials(rng, k, n);
    // Pepper both operands with exact zeros.
    for (int64_t i = 1; i < a.size(); i += 4) a.data()[i] = 0.0;
    for (int64_t i = 1; i < b.size(); i += 5) b.data()[i] = 0.0;
    const nn::Tensor expected = ReferenceMatMul(a, b);
    for (nn::kernels::Backend backend :
         {nn::kernels::Backend::kScalar, nn::kernels::ActiveBackend()}) {
      const nn::kernels::Backend prev =
          nn::kernels::SetBackendForTest(backend);
      for (int threads : {1, 2, 8}) {
        parallel::ThreadPool::SetGlobalThreads(threads);
        EXPECT_TRUE(BitIdentical(a.MatMul(b), expected))
            << m << "x" << k << "x" << n << " on "
            << nn::kernels::BackendName(backend) << " @ " << threads
            << " threads";
      }
      nn::kernels::SetBackendForTest(prev);
    }
  }
}

// ---------------------------------------------------------------------------
// TaskQueue: the bounded async queue behind the serve daemon.
// ---------------------------------------------------------------------------

TEST(TaskQueueTest, PropagatesResultsAndExceptions) {
  parallel::TaskQueue queue(2, 8);
  std::future<int> value = queue.Submit([] { return 19; });
  EXPECT_EQ(value.get(), 19);
  std::future<void> boom =
      queue.Submit([] { throw std::invalid_argument("bad task"); });
  EXPECT_THROW(boom.get(), std::invalid_argument);
}

/// Blocks the queue's single worker until `gate` flips, so the test can
/// stack up pending tasks deterministically.
std::future<void> BlockWorker(parallel::TaskQueue& queue,
                              std::atomic<bool>& gate) {
  std::future<void> blocker = queue.Submit([&gate] {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  // Wait for the worker to dequeue the blocker so later submissions sit in
  // the pending queue rather than racing it.
  while (queue.pending() != 0) std::this_thread::yield();
  return blocker;
}

TEST(TaskQueueTest, ShutdownDrainsAcceptedTasksInFifoOrder) {
  std::array<int, 5> order{};
  std::atomic<int> next{0};
  {
    parallel::TaskQueue queue(1, 8);
    std::atomic<bool> gate{false};
    std::future<void> blocker = BlockWorker(queue, gate);
    std::vector<std::future<void>> accepted;
    for (int i = 0; i < 5; ++i)
      accepted.push_back(queue.Submit([&, i] { order[next++] = i; }));
    gate.store(true, std::memory_order_release);
    queue.Shutdown();  // Must run all five accepted tasks before joining.
    EXPECT_TRUE(queue.shutting_down());
    for (std::future<void>& f : accepted) f.get();  // None rejected.

    // Admission is closed: Submit rejects via the future.
    std::future<int> rejected = queue.Submit([] { return 3; });
    EXPECT_THROW(rejected.get(), parallel::TaskRejectedError);
  }
  ASSERT_EQ(next.load(), 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);  // FIFO drain.
}

TEST(TaskQueueTest, SubmitBlocksWhileFullUntilASlotFrees) {
  parallel::TaskQueue queue(1, 1);
  std::atomic<bool> gate{false};
  std::future<void> blocker = BlockWorker(queue, gate);
  std::future<int> first = queue.Submit([] { return 1; });  // Fills the slot.

  std::atomic<bool> admitted{false};
  std::future<int> second;
  std::thread submitter([&] {
    second = queue.Submit([] { return 2; });
    admitted.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load(std::memory_order_acquire));
  EXPECT_EQ(queue.pending(), 1u);

  gate.store(true, std::memory_order_release);  // The worker frees the slot.
  submitter.join();
  EXPECT_TRUE(admitted.load(std::memory_order_acquire));
  blocker.get();
  EXPECT_EQ(first.get(), 1);
  EXPECT_EQ(second.get(), 2);
}

}  // namespace
}  // namespace tgsim
