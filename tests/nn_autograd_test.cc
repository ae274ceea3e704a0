#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "nn/gradcheck.h"

namespace tgsim::nn {
namespace {

Rng MakeRng(uint64_t seed = 123) { return Rng(seed); }

TEST(AutogradTest, BackwardOnConstantIsNoop) {
  Var c = Var::Constant(Tensor::Ones(1, 1));
  Backward(c);  // Must not crash; no gradients required anywhere.
  SUCCEED();
}

TEST(AutogradTest, SimpleChainGradient) {
  // f(x) = sum(3 * x) -> df/dx = 3.
  Var x = Var::Param(Tensor::Full(2, 3, 2.0));
  Var loss = Sum(Scale(x, 3.0));
  Backward(loss);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(x.grad().at(r, c), 3.0);
}

TEST(AutogradTest, GradientsAccumulateAcrossBackwardCalls) {
  Var x = Var::Param(Tensor::Ones(1, 1));
  Var l1 = Sum(Scale(x, 2.0));
  Backward(l1);
  Var l2 = Sum(Scale(x, 5.0));
  Backward(l2);
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 7.0);
  x.ZeroGrad();
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 0.0);
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // loss = sum(x*x + x) -> d/dx = 2x + 1.
  Var x = Var::Param(Tensor::Full(1, 1, 3.0));
  Var loss = Sum(Add(Mul(x, x), x));
  Backward(loss);
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 7.0);
}

// ---------------------------------------------------------------------------
// Numerical gradient checks for every op.
// ---------------------------------------------------------------------------

struct OpCase {
  std::string name;
  std::function<Var(const std::vector<Var>&)> build;
  std::vector<std::pair<int, int>> shapes;
  bool positive_inputs = false;
};

class OpGradCheckTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradCheckTest, MatchesNumericalGradient) {
  const OpCase& op = GetParam();
  Rng rng = MakeRng();
  std::vector<Var> params;
  for (auto [r, c] : op.shapes) {
    Tensor t = Tensor::Randn(rng, r, c, 0.7);
    if (op.positive_inputs)
      for (int64_t i = 0; i < t.size(); ++i)
        t.data()[i] = std::fabs(t.data()[i]) + 0.5;
    params.push_back(Var::Param(std::move(t)));
  }
  GradCheckResult res =
      CheckGradients(params, [&]() { return op.build(params); });
  EXPECT_TRUE(res.ok) << op.name << ": max_rel_error=" << res.max_rel_error;
}

std::vector<OpCase> AllOpCases() {
  std::vector<OpCase> cases;
  cases.push_back({"matmul",
                   [](const std::vector<Var>& p) {
                     return Sum(MatMul(p[0], p[1]));
                   },
                   {{3, 4}, {4, 2}}});
  cases.push_back({"add",
                   [](const std::vector<Var>& p) {
                     return Sum(Mul(Add(p[0], p[1]), p[0]));
                   },
                   {{3, 3}, {3, 3}}});
  cases.push_back({"add_broadcast",
                   [](const std::vector<Var>& p) {
                     return Sum(Mul(Add(p[0], p[1]), p[0]));
                   },
                   {{4, 3}, {1, 3}}});
  cases.push_back({"sub",
                   [](const std::vector<Var>& p) {
                     return Sum(Mul(Sub(p[0], p[1]), p[1]));
                   },
                   {{2, 5}, {2, 5}}});
  cases.push_back({"mul_col_broadcast",
                   [](const std::vector<Var>& p) {
                     return Sum(MulColBroadcast(p[0], p[1]));
                   },
                   {{4, 3}, {4, 1}}});
  cases.push_back({"scale_addscalar",
                   [](const std::vector<Var>& p) {
                     return Sum(AddScalar(Scale(p[0], -1.7), 0.3));
                   },
                   {{3, 3}}});
  cases.push_back({"sigmoid",
                   [](const std::vector<Var>& p) {
                     return Sum(Sigmoid(p[0]));
                   },
                   {{3, 4}}});
  cases.push_back({"tanh",
                   [](const std::vector<Var>& p) { return Sum(Tanh(p[0])); },
                   {{3, 4}}});
  cases.push_back({"leaky_relu",
                   [](const std::vector<Var>& p) {
                     return Sum(LeakyRelu(p[0]));
                   },
                   {{5, 5}}});
  cases.push_back({"exp",
                   [](const std::vector<Var>& p) { return Sum(Exp(p[0])); },
                   {{3, 3}}});
  cases.push_back({"log",
                   [](const std::vector<Var>& p) { return Sum(Log(p[0])); },
                   {{3, 3}},
                   /*positive_inputs=*/true});
  cases.push_back({"square",
                   [](const std::vector<Var>& p) {
                     return Sum(Square(p[0]));
                   },
                   {{3, 3}}});
  cases.push_back({"softmax_rows",
                   [](const std::vector<Var>& p) {
                     Tensor w(3, 4);
                     for (int i = 0; i < 12; ++i)
                       w.data()[i] = 0.1 * (i + 1);
                     return Sum(Mul(SoftmaxRows(p[0]), Var::Constant(w)));
                   },
                   {{3, 4}}});
  cases.push_back({"log_softmax_rows",
                   [](const std::vector<Var>& p) {
                     Tensor w(3, 4);
                     for (int i = 0; i < 12; ++i)
                       w.data()[i] = 0.05 * (i + 1);
                     return Sum(Mul(LogSoftmaxRows(p[0]), Var::Constant(w)));
                   },
                   {{3, 4}}});
  cases.push_back({"mean",
                   [](const std::vector<Var>& p) { return Mean(p[0]); },
                   {{4, 4}}});
  cases.push_back({"concat_cols",
                   [](const std::vector<Var>& p) {
                     return Sum(Square(ConcatCols({p[0], p[1]})));
                   },
                   {{3, 2}, {3, 4}}});
  cases.push_back({"gather_rows",
                   [](const std::vector<Var>& p) {
                     return Sum(Square(GatherRows(p[0], {2, 0, 2, 1})));
                   },
                   {{3, 3}}});
  cases.push_back({"slice_cols",
                   [](const std::vector<Var>& p) {
                     return Sum(Square(SliceCols(p[0], 1, 4)));
                   },
                   {{3, 5}}});
  cases.push_back({"gather_cols",
                   [](const std::vector<Var>& p) {
                     // Duplicate index exercises the scatter-add backward.
                     return Sum(Square(GatherCols(p[0], {3, 0, 3, 1})));
                   },
                   {{3, 4}}});
  cases.push_back({"segment_sum",
                   [](const std::vector<Var>& p) {
                     return Sum(Square(SegmentSum(p[0], {0, 1, 0, 2}, 3)));
                   },
                   {{4, 3}}});
  cases.push_back({"segment_softmax",
                   [](const std::vector<Var>& p) {
                     Tensor w(5, 1);
                     for (int i = 0; i < 5; ++i) w.data()[i] = 0.2 * (i + 1);
                     return Sum(Mul(SegmentSoftmax(p[0], {0, 0, 1, 1, 1}, 2),
                                    Var::Constant(w)));
                   },
                   {{5, 1}}});
  cases.push_back({"transpose",
                   [](const std::vector<Var>& p) {
                     return Sum(MatMul(Transpose(p[0]), p[0]));
                   },
                   {{3, 2}}});
  cases.push_back({"kl_to_standard_normal",
                   [](const std::vector<Var>& p) {
                     return KlToStandardNormal(p[0], p[1]);
                   },
                   {{3, 4}, {3, 4}}});
  cases.push_back({"mse",
                   [](const std::vector<Var>& p) {
                     Tensor target(3, 3, 0.5);
                     return MseLoss(p[0], target);
                   },
                   {{3, 3}}});
  cases.push_back({"row_cross_entropy",
                   [](const std::vector<Var>& p) {
                     Tensor target(3, 4);
                     target.at(0, 1) = 1.0;
                     target.at(1, 0) = 0.5;
                     target.at(1, 3) = 0.5;
                     target.at(2, 2) = 1.0;
                     return RowCrossEntropyWithLogits(p[0], target);
                   },
                   {{3, 4}}});
  cases.push_back({"row_cross_entropy_sparse",
                   [](const std::vector<Var>& p) {
                     SparseRowTargets t;
                     t.AppendEntry(3, 0.25);  // Columns out of order.
                     t.AppendEntry(0, 0.75);
                     t.FinishRow();
                     t.FinishRow();  // Empty row: zero contribution.
                     t.AppendEntry(4, 0.5);
                     t.AppendEntry(2, 0.5);
                     t.FinishRow();
                     return RowCrossEntropyWithLogits(p[0], t);
                   },
                   {{3, 5}}});
  cases.push_back({"affine",
                   [](const std::vector<Var>& p) {
                     return Sum(Square(Affine(p[0], p[1], p[2])));
                   },
                   {{4, 3}, {3, 5}, {1, 5}}});
  cases.push_back({"bce_with_logits",
                   [](const std::vector<Var>& p) {
                     Tensor target(3, 3);
                     target.at(0, 1) = 1.0;
                     target.at(2, 2) = 1.0;
                     return BinaryCrossEntropyWithLogits(p[0], target, 2.5);
                   },
                   {{3, 3}}});
  cases.push_back({"graph_attention",
                   [](const std::vector<Var>& p) {
                     // Two heads of width 2 over 6 source rows into 4
                     // targets; target 2 has no in-edges.
                     Tensor w(4, 4);
                     for (int i = 0; i < 16; ++i)
                       w.data()[i] = 0.1 * (i % 7) - 0.25;
                     return Sum(Mul(GraphAttention(p[0], {p[1], p[2]},
                                                   {4, 0, 1, 5, 3, 1, 0},
                                                   {0, 0, 1, 1, 3, 3, 3}, 4,
                                                   0.2),
                                    Var::Constant(w)));
                   },
                   {{6, 4}, {4, 1}, {4, 1}}});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradCheckTest, ::testing::ValuesIn(AllOpCases()),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Forward-value sanity checks.
// ---------------------------------------------------------------------------

TEST(OpValueTest, SoftmaxRowsSumsToOne) {
  Rng rng = MakeRng();
  Tensor x = Tensor::Randn(rng, 5, 7, 3.0);
  Tensor s = x.SoftmaxRows();
  for (int r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 7; ++c) {
      EXPECT_GE(s.at(r, c), 0.0);
      sum += s.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(OpValueTest, SegmentSoftmaxSumsToOnePerSegment) {
  Rng rng = MakeRng();
  Var x = Var::Constant(Tensor::Randn(rng, 6, 1, 2.0));
  std::vector<int> seg = {0, 0, 1, 1, 1, 2};
  Var y = SegmentSoftmax(x, seg, 3);
  std::vector<double> sums(3, 0.0);
  for (int i = 0; i < 6; ++i) sums[seg[i]] += y.value().at(i, 0);
  for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(OpValueTest, SegmentSoftmaxIsStableForLargeScores) {
  Tensor big(3, 1);
  big.at(0, 0) = 1e4;
  big.at(1, 0) = 1e4 + 1.0;
  big.at(2, 0) = -1e4;
  Var y = SegmentSoftmax(Var::Constant(big), {0, 0, 0}, 1);
  EXPECT_TRUE(std::isfinite(y.value().at(0, 0)));
  EXPECT_GT(y.value().at(1, 0), y.value().at(0, 0));
}

TEST(OpValueTest, SliceColsExtractsColumnRange) {
  Tensor x(2, 4, std::vector<Scalar>{1, 2, 3, 4, 5, 6, 7, 8});
  Var s = SliceCols(Var::Constant(x), 1, 3);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.cols(), 2);
  EXPECT_DOUBLE_EQ(s.value().at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s.value().at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(s.value().at(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(s.value().at(1, 1), 7.0);
  // Full-width slice is the identity on values.
  Var full = SliceCols(Var::Constant(x), 0, 4);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 4; ++c)
      EXPECT_DOUBLE_EQ(full.value().at(r, c), x.at(r, c));
}

TEST(OpDeathTest, SliceColsRejectsBadRange) {
  Tensor x(2, 4);
  EXPECT_DEATH(SliceCols(Var::Constant(x), 3, 2), "CHECK failed");
  EXPECT_DEATH(SliceCols(Var::Constant(x), 0, 5), "CHECK failed");
}

TEST(OpValueTest, GatherColsPicksColumns) {
  Tensor x(2, 4, std::vector<Scalar>{1, 2, 3, 4, 5, 6, 7, 8});
  Var g = GatherCols(Var::Constant(x), {2, 0, 2});
  EXPECT_EQ(g.rows(), 2);
  EXPECT_EQ(g.cols(), 3);
  EXPECT_DOUBLE_EQ(g.value().at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(g.value().at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.value().at(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(g.value().at(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(g.value().at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(g.value().at(1, 2), 7.0);
}

TEST(OpDeathTest, GatherColsRejectsOutOfRangeIndex) {
  Tensor x(2, 4);
  EXPECT_DEATH(GatherCols(Var::Constant(x), {0, 4}), "CHECK failed");
  EXPECT_DEATH(GatherCols(Var::Constant(x), {-1}), "CHECK failed");
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(Scalar)) == 0;
}

TEST(FusedOpTest, SparseRowCrossEntropyIsTheCompositionBitForBit) {
  // The fused loss must reproduce the composition it replaced, value and
  // gradient, under an upstream gradient other than 1, with an empty row
  // and with rows whose columns arrive out of order. Rows carry up to a
  // dozen uneven weights, so chaining them in any order other than the
  // composition's (ascending columns) changes the rounding.
  Rng rng = MakeRng(5);
  const int rows = 5, cols = 40;
  const Tensor x = Tensor::Randn(rng, rows, cols, 3.0);
  SparseRowTargets sparse;
  for (int r = 0; r < rows; ++r) {
    const int count = r == 1 ? 0 : 4 + 2 * r;  // Row 1 is empty.
    std::vector<int> picked;
    while (static_cast<int>(picked.size()) < count) {
      const int c = static_cast<int>(rng.UniformInt(cols));
      if (std::find(picked.begin(), picked.end(), c) != picked.end()) continue;
      picked.push_back(c);
      sparse.AppendEntry(c, rng.Uniform(0.05, 1.0));
    }
    sparse.FinishRow();
  }
  Tensor dense(rows, cols);
  for (int r = 0; r < rows; ++r)
    for (int e = sparse.offsets[static_cast<size_t>(r)];
         e < sparse.offsets[static_cast<size_t>(r) + 1]; ++e)
      dense.at(r, sparse.cols[static_cast<size_t>(e)]) =
          sparse.weights[static_cast<size_t>(e)];

  Var ref_x = Var::Param(x);
  Var ref = Scale(Scale(Sum(Mul(LogSoftmaxRows(ref_x), Var::Constant(dense))),
                        -1.0 / rows),
                  0.37);
  Backward(ref);
  Var sparse_x = Var::Param(x);
  Var fused = Scale(RowCrossEntropyWithLogits(sparse_x, sparse), 0.37);
  Backward(fused);
  Var dense_x = Var::Param(x);
  Var via_dense = Scale(RowCrossEntropyWithLogits(dense_x, dense), 0.37);
  Backward(via_dense);

  EXPECT_TRUE(SameBits(ref.value(), fused.value()));
  EXPECT_TRUE(SameBits(ref_x.grad(), sparse_x.grad()));
  EXPECT_TRUE(SameBits(ref.value(), via_dense.value()));
  EXPECT_TRUE(SameBits(ref_x.grad(), dense_x.grad()));
}

TEST(FusedOpTest, AffineIsAddOfMatMulBitForBit) {
  // One multi-row case (the broadcast bias of Add) and one single-row case
  // (Add's same-shape branch); the bias gradient starts non-zero so its
  // ascending-row reduction is checked as an accumulation.
  for (int rows : {6, 1}) {
    SCOPED_TRACE(rows);
    Rng rng = MakeRng(9);
    const Tensor a = Tensor::Randn(rng, rows, 5);
    const Tensor w = Tensor::Randn(rng, 5, 7);
    const Tensor b = Tensor::Randn(rng, 1, 7);
    const Tensor seed = Tensor::Randn(rng, 1, 7);
    const Tensor mix = Tensor::Randn(rng, rows, 7);
    auto run = [&](bool fused) {
      std::vector<Var> p = {Var::Param(a), Var::Param(w), Var::Param(b)};
      p[2].mutable_grad() = seed;
      Var y = fused ? Affine(p[0], p[1], p[2])
                    : Add(MatMul(p[0], p[1]), p[2]);
      Var loss = Scale(Sum(Mul(Square(y), Var::Constant(mix))), 0.37);
      Backward(loss);
      return std::make_pair(loss, p);
    };
    auto [ref, ref_p] = run(false);
    auto [got, got_p] = run(true);
    EXPECT_TRUE(SameBits(ref.value(), got.value()));
    for (size_t i = 0; i < ref_p.size(); ++i)
      EXPECT_TRUE(SameBits(ref_p[i].grad(), got_p[i].grad())) << "param " << i;
  }
}

/// The per-head composition GraphAttention replaces, as TgatLayer built it
/// from separate ops.
Var AttentionComposition(const Var& proj, const std::vector<Var>& a_heads,
                         const std::vector<int>& src,
                         const std::vector<int>& dst, int n_dst,
                         Scalar slope) {
  const int heads = static_cast<int>(a_heads.size());
  const int d = proj.cols() / heads;
  std::vector<Var> outs;
  for (int h = 0; h < heads; ++h) {
    Var p = heads == 1 ? proj : SliceCols(proj, h * d, (h + 1) * d);
    Var hs = GatherRows(p, src);
    Var hd = GatherRows(p, dst);
    Var scores = LeakyRelu(
        MatMul(ConcatCols({hs, hd}), a_heads[static_cast<size_t>(h)]), slope);
    Var alpha = SegmentSoftmax(scores, dst, n_dst);
    outs.push_back(LeakyRelu(
        SegmentSum(MulColBroadcast(hs, alpha), dst, n_dst), slope));
  }
  return heads == 1 ? outs[0] : ConcatCols(outs);
}

TEST(FusedOpTest, GraphAttentionIsTheCompositionBitForBit) {
  // 12 projection rows, 6 targets. Edges arrive unsorted, sources repeat,
  // target 2 has no in-edges and row 2 sources none: the composition
  // writes a zero output row for it and passes that row no gradient.
  // Target 5 has 10 in-edges, so its softmax takes RowMax's 4-lane shape
  // and the 4-accumulator sum with a tail. 23 edges score as five groups
  // of four chains and a tail of three.
  const std::vector<int> src = {7, 0, 9, 3, 1,  8, 0, 4, 3, 11, 0, 6,
                                4, 3, 1, 10, 5, 8, 7, 9, 4,  6,  1};
  const std::vector<int> dst = {4, 0, 5, 1, 1, 3, 5, 0, 4, 5, 3, 1,
                                4, 5, 4, 5, 0, 3, 5, 5, 5, 5, 5};
  const int n_src = 12, n_dst = 6;
  // Head width 16 is preset=paper's; 3 leaves lane tails everywhere.
  for (int d : {3, 16}) {
    for (int heads : {1, 2, 3}) {
      SCOPED_TRACE(::testing::Message() << "d=" << d << " heads=" << heads);
      Rng rng = MakeRng(17);
      const Tensor proj = Tensor::Randn(rng, n_src, heads * d);
      std::vector<Tensor> a;
      for (int h = 0; h < heads; ++h)
        a.push_back(Tensor::Randn(rng, 2 * d, 1));
      const Tensor mix = Tensor::Randn(rng, n_dst, heads * d);
      auto run = [&](bool fused) {
        std::vector<Var> p = {Var::Param(proj)};
        for (const Tensor& t : a) p.push_back(Var::Param(t));
        for (Var& v : p) v.ZeroGrad();
        const std::vector<Var> a_heads(p.begin() + 1, p.end());
        Var y = fused ? GraphAttention(p[0], a_heads, src, dst, n_dst, 0.2)
                      : AttentionComposition(p[0], a_heads, src, dst, n_dst,
                                             0.2);
        Backward(Sum(Mul(y, Var::Constant(mix))));
        return std::make_pair(y, p);
      };
      auto [ref, ref_p] = run(false);
      auto [got, got_p] = run(true);
      EXPECT_TRUE(SameBits(ref.value(), got.value()));
      for (size_t i = 0; i < ref_p.size(); ++i)
        EXPECT_TRUE(SameBits(ref_p[i].grad(), got_p[i].grad()))
            << "param " << i;
      for (int c = 0; c < heads * d; ++c) {
        EXPECT_EQ(got.value().at(2, c), 0.0);
        EXPECT_EQ(got_p[0].grad().at(2, c), 0.0);
      }
      // Without a tape the op computes the same value.
      NoGradScope no_grad;
      std::vector<Var> a_heads;
      for (const Tensor& t : a) a_heads.push_back(Var::Param(t));
      EXPECT_TRUE(SameBits(got.value(),
                           GraphAttention(Var::Param(proj), a_heads, src, dst,
                                          n_dst, 0.2)
                               .value()));
    }
  }
}

TEST(OpDeathTest, GraphAttentionRejectsBadShapes) {
  Var proj = Var::Constant(Tensor(4, 6));
  Var a = Var::Constant(Tensor(6, 1));  // Fits two heads of width 3.
  // 6 columns do not split into 4 heads.
  EXPECT_DEATH(GraphAttention(proj, {a, a, a, a}, {0}, {0}, 2, 0.2),
               "CHECK failed");
  // One head of width 6 needs a 12 x 1 attention vector.
  EXPECT_DEATH(GraphAttention(proj, {a}, {0}, {0}, 2, 0.2), "CHECK failed");
  // A source past the projection rows, a target past n_dst, and more
  // targets than projection rows.
  EXPECT_DEATH(GraphAttention(proj, {a, a}, {4}, {0}, 2, 0.2),
               "CHECK failed");
  EXPECT_DEATH(GraphAttention(proj, {a, a}, {0}, {2}, 2, 0.2),
               "CHECK failed");
  EXPECT_DEATH(GraphAttention(proj, {a, a}, {0}, {0}, 5, 0.2),
               "CHECK failed");
}

TEST(NoGradScopeTest, OpsUnderItRecordNoTape) {
  Var x = Var::Param(Tensor::Full(2, 2, 0.5));
  Var w = Var::Param(Tensor::Full(2, 2, 1.5));
  auto records = [&] {
    Var y = Tanh(MatMul(x, w));
    return y.requires_grad() && y.node()->parents.size() == 1 &&
           static_cast<bool>(y.node()->backward_fn);
  };
  EXPECT_TRUE(records());
  Tensor taped = Tanh(MatMul(x, w)).value();
  {
    NoGradScope outer;
    Var y = Tanh(MatMul(x, w));
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->parents.empty());
    EXPECT_FALSE(static_cast<bool>(y.node()->backward_fn));
    EXPECT_TRUE(SameBits(y.value(), taped));  // Values do not change.
    {
      NoGradScope inner;
      EXPECT_FALSE(records());
    }
    EXPECT_FALSE(records());  // Closing the inner scope keeps the outer one.
  }
  EXPECT_TRUE(records());
  try {
    NoGradScope scope;
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(records());
  // Parameters made under a scope stay trainable.
  {
    NoGradScope scope;
    EXPECT_TRUE(Var::Param(Tensor::Ones(1, 1)).requires_grad());
  }
}

TEST(OpDeathTest, RowCrossEntropyRejectsBadTargets) {
  Tensor logits(2, 3);
  SparseRowTargets out_of_range;
  out_of_range.AppendEntry(3, 1.0);
  out_of_range.FinishRow();
  out_of_range.FinishRow();
  EXPECT_DEATH(RowCrossEntropyWithLogits(Var::Constant(logits), out_of_range),
               "CHECK failed");
  SparseRowTargets negative;
  negative.FinishRow();
  negative.AppendEntry(-1, 1.0);
  negative.FinishRow();
  EXPECT_DEATH(RowCrossEntropyWithLogits(Var::Constant(logits), negative),
               "CHECK failed");
  SparseRowTargets repeated;
  repeated.AppendEntry(2, 0.5);
  repeated.AppendEntry(0, 0.25);
  repeated.AppendEntry(2, 0.25);
  repeated.FinishRow();
  repeated.FinishRow();
  EXPECT_DEATH(RowCrossEntropyWithLogits(Var::Constant(logits), repeated),
               "CHECK failed");
  SparseRowTargets one_row;
  one_row.AppendEntry(0, 1.0);
  one_row.FinishRow();
  EXPECT_DEATH(RowCrossEntropyWithLogits(Var::Constant(logits), one_row),
               "CHECK failed");
}

TEST(OpDeathTest, AffineRejectsNonRowBias) {
  Var a = Var::Constant(Tensor(2, 3));
  Var w = Var::Constant(Tensor(3, 4));
  EXPECT_DEATH(Affine(a, w, Var::Constant(Tensor(2, 4))), "CHECK failed");
  EXPECT_DEATH(Affine(a, w, Var::Constant(Tensor(1, 3))), "CHECK failed");
}

TEST(OpValueTest, MatMulMatchesManual) {
  Tensor a(2, 3, std::vector<Scalar>{1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, std::vector<Scalar>{7, 8, 9, 10, 11, 12});
  Tensor c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(OpValueTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng = MakeRng();
  Tensor x = Tensor::Randn(rng, 4, 6, 2.0);
  Var ls = LogSoftmaxRows(Var::Constant(x));
  Tensor s = x.SoftmaxRows();
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 6; ++c)
      EXPECT_NEAR(ls.value().at(r, c), std::log(s.at(r, c)), 1e-9);
}

TEST(OpValueTest, BceMatchesNaiveFormula) {
  Tensor logits(1, 2, std::vector<Scalar>{0.3, -1.2});
  Tensor targets(1, 2, std::vector<Scalar>{1.0, 0.0});
  Var loss =
      BinaryCrossEntropyWithLogits(Var::Constant(logits), targets, 1.0);
  auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
  double expected =
      (-std::log(sigmoid(0.3)) - std::log(1.0 - sigmoid(-1.2))) / 2.0;
  EXPECT_NEAR(loss.item(), expected, 1e-9);
}

}  // namespace
}  // namespace tgsim::nn
