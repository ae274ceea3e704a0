// Bit-identity harness for the dispatched kernel layer (nn/simd.h): every
// kernel in the active backend's table must produce EXACTLY the bits of
// the scalar reference on every input shape and value class the callers
// can produce — lengths 1..257 (every lane-remainder case), denormals,
// signed zeros, extreme magnitudes, and the ExpD clamp edges. Under a
// TGSIM_FORCE_SCALAR build the active table IS the scalar table and the
// sweep degenerates to a self-check; on AVX2 hosts it pins the SIMD
// variants lane for lane.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/optim.h"
#include "nn/simd.h"
#include "nn/tensor.h"

namespace tgsim::nn::kernels {
namespace {

constexpr int kMaxN = 257;

/// Special values cycled into every buffer: signed zeros, denormals,
/// extremes (capped at 1e150 so dot-style products cannot manufacture
/// inf - inf = NaN), and exp-range edges.
constexpr Scalar kSpecials[] = {
    0.0,     -0.0,    5e-324,  -5e-324, 2.2250738585072014e-308,
    1e150,   -1e150,  -745.0,  -710.0,  709.0,
    0.5,     -2.25,   1e-30,   -1e-30,  3.0,
};

std::vector<Scalar> MakeBuffer(int n, uint64_t seed, bool nonnegative = false) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Scalar> uni(-3.0, 3.0);
  std::vector<Scalar> out(static_cast<size_t>(n));
  constexpr int kNumSpecials =
      static_cast<int>(sizeof(kSpecials) / sizeof(kSpecials[0]));
  for (int i = 0; i < n; ++i) {
    // Every third slot gets a special value, the rest are random.
    out[static_cast<size_t>(i)] =
        (i % 3 == 0) ? kSpecials[(i / 3 + static_cast<int>(seed)) %
                                 kNumSpecials]
                     : uni(rng);
    if (nonnegative) out[static_cast<size_t>(i)] = std::fabs(out[static_cast<size_t>(i)]);
  }
  return out;
}

::testing::AssertionResult BitsEqual(const std::vector<Scalar>& a,
                                     const std::vector<Scalar>& b,
                                     const char* what, int n) {
  EXPECT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t ba, bb;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    if (ba != bb) {
      return ::testing::AssertionFailure()
             << what << " n=" << n << " mismatch at [" << i << "]: scalar "
             << a[i] << " (0x" << std::hex << ba << ") vs dispatched "
             << b[i] << " (0x" << bb << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult ScalarBitsEqual(Scalar a, Scalar b,
                                           const char* what, int n) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba != bb) {
    return ::testing::AssertionFailure()
           << what << " n=" << n << ": scalar " << a << " (0x" << std::hex
           << ba << ") vs dispatched " << b << " (0x" << bb << ")";
  }
  return ::testing::AssertionSuccess();
}

TEST(KernelDispatchTest, BackendIsResolvedAndCompiledIn) {
  const Backend b = ActiveBackend();
  EXPECT_TRUE(BackendCompiledIn(b));
  EXPECT_TRUE(BackendCompiledIn(Backend::kScalar));
  EXPECT_STRNE(BackendName(b), "unknown");
  // The active table must be exactly the table OpsFor hands out.
  EXPECT_EQ(&Ops(), OpsFor(b));
}

TEST(KernelBitIdentityTest, ReductionsAndExpKernels) {
  const KernelOps* s = GetScalarOps();
  const KernelOps& d = Ops();
  for (int n = 1; n <= kMaxN; ++n) {
    const std::vector<Scalar> x = MakeBuffer(n, static_cast<uint64_t>(n));

    EXPECT_TRUE(ScalarBitsEqual(s->row_max(x.data(), n),
                                d.row_max(x.data(), n), "RowMax", n));

    const Scalar m = s->row_max(x.data(), n);
    std::vector<Scalar> es(static_cast<size_t>(n)),
        ed(static_cast<size_t>(n));
    const Scalar zs = s->exp_row_sum(x.data(), m, es.data(), n);
    const Scalar zd = d.exp_row_sum(x.data(), m, ed.data(), n);
    EXPECT_TRUE(ScalarBitsEqual(zs, zd, "ExpRowSum(z)", n));
    EXPECT_TRUE(BitsEqual(es, ed, "ExpRowSum(dst)", n));

    s->exp_row(x.data(), 0.25, es.data(), n);
    d.exp_row(x.data(), 0.25, ed.data(), n);
    EXPECT_TRUE(BitsEqual(es, ed, "ExpRow", n));

    std::vector<Scalar> qs = x, qd = x;
    s->div_row(qs.data(), 1.75, n);
    d.div_row(qd.data(), 1.75, n);
    EXPECT_TRUE(BitsEqual(qs, qd, "DivRow", n));

    const std::vector<Scalar> y = MakeBuffer(n, static_cast<uint64_t>(n) + 7);
    EXPECT_TRUE(ScalarBitsEqual(s->dot(x.data(), y.data(), n),
                                d.dot(x.data(), y.data(), n), "Dot", n));
    const std::vector<Scalar> y2 =
        MakeBuffer(n, static_cast<uint64_t>(n) + 13);
    EXPECT_TRUE(ScalarBitsEqual(
        s->dot_sum2(x.data(), y.data(), y2.data(), n),
        d.dot_sum2(x.data(), y.data(), y2.data(), n), "DotSum2", n));
  }
}

TEST(KernelBitIdentityTest, ElementwiseKernels) {
  const KernelOps* s = GetScalarOps();
  const KernelOps& d = Ops();
  for (int n = 1; n <= kMaxN; ++n) {
    const std::vector<Scalar> x = MakeBuffer(n, static_cast<uint64_t>(n));
    const std::vector<Scalar> y =
        MakeBuffer(n, static_cast<uint64_t>(n) + 31);
    const std::vector<Scalar> base =
        MakeBuffer(n, static_cast<uint64_t>(n) + 57);
    std::vector<Scalar> as, ad;

    as = base, ad = base;
    s->axpy_row(1.5, x.data(), as.data(), n);
    d.axpy_row(1.5, x.data(), ad.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "AxpyRow", n));

    const std::vector<Scalar> b2 = MakeBuffer(n, 1001), b3 = MakeBuffer(n, 1002);
    as = base, ad = base;
    s->axpy4_row(1.5, x.data(), -0.75, y.data(), 2.0, b2.data(), 0.125,
                 b3.data(), as.data(), n);
    d.axpy4_row(1.5, x.data(), -0.75, y.data(), 2.0, b2.data(), 0.125,
                b3.data(), ad.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "Axpy4Row", n));

    as = base, ad = base;
    s->add_row(as.data(), x.data(), n);
    d.add_row(ad.data(), x.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "AddRow", n));

    as = base, ad = base;
    s->scale_row(as.data(), -1.25, n);
    d.scale_row(ad.data(), -1.25, n);
    EXPECT_TRUE(BitsEqual(as, ad, "ScaleRow", n));

    as = base, ad = base;
    s->mul_row(as.data(), x.data(), n);
    d.mul_row(ad.data(), x.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "MulRow", n));

    as = base, ad = base;
    s->mul_add_row(as.data(), x.data(), y.data(), n);
    d.mul_add_row(ad.data(), x.data(), y.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "MulAddRow", n));

    as = base, ad = base;
    s->scale_add_row(as.data(), 0.9, x.data(), 1.0, n);
    d.scale_add_row(ad.data(), 0.9, x.data(), 1.0, n);
    EXPECT_TRUE(BitsEqual(as, ad, "ScaleAddRow", n));

    as.assign(static_cast<size_t>(n), 0.0);
    ad.assign(static_cast<size_t>(n), 0.0);
    s->shift_row(x.data(), 0.375, as.data(), n);
    d.shift_row(x.data(), 0.375, ad.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "ShiftRow", n));
  }
}

TEST(KernelBitIdentityTest, ActivationAndBackwardKernels) {
  const KernelOps* s = GetScalarOps();
  const KernelOps& d = Ops();
  for (int n = 1; n <= kMaxN; ++n) {
    const std::vector<Scalar> x = MakeBuffer(n, static_cast<uint64_t>(n));
    const std::vector<Scalar> go =
        MakeBuffer(n, static_cast<uint64_t>(n) + 11);
    const std::vector<Scalar> base =
        MakeBuffer(n, static_cast<uint64_t>(n) + 23);
    std::vector<Scalar> as(static_cast<size_t>(n)),
        ad(static_cast<size_t>(n));

    s->sigmoid_row(x.data(), as.data(), n);
    d.sigmoid_row(x.data(), ad.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "SigmoidRow", n));

    const std::vector<Scalar> y = as;  // forward output for the backward
    as = base, ad = base;
    s->sigmoid_bwd_row(go.data(), y.data(), as.data(), n);
    d.sigmoid_bwd_row(go.data(), y.data(), ad.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "SigmoidBwdRow", n));

    s->relu_row(x.data(), as.data(), n);
    d.relu_row(x.data(), ad.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "ReluRow", n));

    as = base, ad = base;
    s->relu_bwd_row(go.data(), x.data(), as.data(), n);
    d.relu_bwd_row(go.data(), x.data(), ad.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "ReluBwdRow", n));

    s->leaky_relu_row(x.data(), 0.01, as.data(), n);
    d.leaky_relu_row(x.data(), 0.01, ad.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "LeakyReluRow", n));

    as = base, ad = base;
    s->leaky_relu_bwd_row(go.data(), x.data(), 0.01, as.data(), n);
    d.leaky_relu_bwd_row(go.data(), x.data(), 0.01, ad.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "LeakyReluBwdRow", n));

    as = base, ad = base;
    s->softmax_bwd_row(go.data(), y.data(), 0.625, as.data(), n);
    d.softmax_bwd_row(go.data(), y.data(), 0.625, ad.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "SoftmaxBwdRow", n));

    as = base, ad = base;
    s->logsoftmax_bwd_row(go.data(), y.data(), -1.5, as.data(), n);
    d.logsoftmax_bwd_row(go.data(), y.data(), -1.5, ad.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "LogSoftmaxBwdRow", n));

    as = base, ad = base;
    s->axpy_div_row(0.75, y.data(), 2.5, as.data(), n);
    d.axpy_div_row(0.75, y.data(), 2.5, ad.data(), n);
    EXPECT_TRUE(BitsEqual(as, ad, "AxpyDivRow", n));
  }
}

TEST(KernelBitIdentityTest, AdamRow) {
  const KernelOps* s = GetScalarOps();
  const KernelOps& d = Ops();
  for (int n = 1; n <= kMaxN; ++n) {
    const std::vector<Scalar> g = MakeBuffer(n, static_cast<uint64_t>(n));
    std::vector<Scalar> xs = MakeBuffer(n, 101), xd = xs;
    std::vector<Scalar> ms = MakeBuffer(n, 102), md = ms;
    // Second moments must be non-negative (they feed sqrt).
    std::vector<Scalar> vs = MakeBuffer(n, 103, /*nonnegative=*/true),
                        vd = vs;
    s->adam_row(xs.data(), ms.data(), vs.data(), g.data(), 0.9, 0.1, 0.999,
                0.001, 0.2, 0.05, 1e-3, 1e-8, n);
    d.adam_row(xd.data(), md.data(), vd.data(), g.data(), 0.9, 0.1, 0.999,
               0.001, 0.2, 0.05, 1e-3, 1e-8, n);
    EXPECT_TRUE(BitsEqual(xs, xd, "AdamRow(x)", n));
    EXPECT_TRUE(BitsEqual(ms, md, "AdamRow(m)", n));
    EXPECT_TRUE(BitsEqual(vs, vd, "AdamRow(v)", n));
  }
}

TEST(KernelBitIdentityTest, DotPanel4MatchesSerialDotPerColumn) {
  const KernelOps* s = GetScalarOps();
  const KernelOps& d = Ops();
  for (int dim : {1, 2, 3, 8, 32, 33, 64}) {
    const std::vector<Scalar> h =
        MakeBuffer(dim, static_cast<uint64_t>(dim));
    const std::vector<Scalar> panel =
        MakeBuffer(4 * dim, static_cast<uint64_t>(dim) + 77);
    Scalar out_s[4], out_d[4];
    s->dot_panel4(h.data(), panel.data(), dim, out_s);
    d.dot_panel4(h.data(), panel.data(), dim, out_d);
    for (int j = 0; j < 4; ++j) {
      // De-interleave column j and check against the pinned serial Dot —
      // the panel must not change the per-output accumulation chain.
      std::vector<Scalar> col(static_cast<size_t>(dim));
      for (int k = 0; k < dim; ++k)
        col[static_cast<size_t>(k)] = panel[static_cast<size_t>(4 * k + j)];
      const Scalar ref = scalar::Dot(h.data(), col.data(), dim);
      EXPECT_TRUE(ScalarBitsEqual(ref, out_s[j], "DotPanel4 vs Dot", dim));
      EXPECT_TRUE(ScalarBitsEqual(out_s[j], out_d[j], "DotPanel4", dim));
    }
  }
}

// TGAE generation scores only the support columns of each decoder row, with
// kernels::Dot on the tied decoder and a DotPanel4 lane on the untied one,
// and must draw exactly what the dense MatMul decode would. Pin that
// association: MatMul(A, B)(r, v) == Dot(A.row(r), B^T.row(v)) == lane v % 4
// of DotPanel4 over B's k-major panel block v / 4, bit for bit, on the scalar
// and the active backend. The depths cross the Axpy4Row tail and the 64-wide
// MatMul k-block; the rows carry signed zeros and denormals.
TEST(KernelBitIdentityTest, MatMulColumnIsDotAndPanelLane) {
  constexpr int kRows = 3;
  constexpr int kCols = 9;  // Two full panel blocks plus a padded one.
  for (Backend backend : {Backend::kScalar, ActiveBackend()}) {
    const Backend prev = SetBackendForTest(backend);
    for (int dim : {1, 3, 4, 5, 31, 32, 33, 64, 65, 130}) {
      Tensor a(kRows, dim);
      Tensor b(dim, kCols);
      for (int r = 0; r < 2; ++r) {
        const std::vector<Scalar> row =
            MakeBuffer(dim, static_cast<uint64_t>(dim + r));
        std::copy(row.begin(), row.end(), a.row(r));
      }
      // Row 2: -0.0 and denormals only, so every product is a signed zero
      // or a denormal and the chain's +0.0 start decides the sign.
      for (int k = 0; k < dim; ++k)
        a.at(2, k) = (k % 2 == 0) ? -0.0 : 5e-324;
      const std::vector<Scalar> bvals =
          MakeBuffer(dim * kCols, static_cast<uint64_t>(dim) + 101);
      std::copy(bvals.begin(), bvals.end(), b.data());

      const Tensor product = a.MatMul(b);
      const Tensor bt = b.Transpose();
      const int blocks = (kCols + 3) / 4;
      std::vector<Scalar> panel(static_cast<size_t>(blocks) * dim * 4, 0.0);
      for (int k = 0; k < dim; ++k)
        for (int v = 0; v < kCols; ++v)
          panel[static_cast<size_t>(v / 4) * dim * 4 +
                static_cast<size_t>(k) * 4 + (v % 4)] = b.at(k, v);

      for (int r = 0; r < kRows; ++r) {
        for (int v = 0; v < kCols; ++v) {
          const Scalar want = product.at(r, v);
          EXPECT_TRUE(ScalarBitsEqual(
              want, Dot(a.row(r), bt.row(v), dim), "MatMul vs Dot", dim))
              << BackendName(backend) << " r=" << r << " v=" << v;
          Scalar lanes[4];
          DotPanel4(a.row(r),
                    panel.data() + static_cast<size_t>(v / 4) * dim * 4, dim,
                    lanes);
          EXPECT_TRUE(ScalarBitsEqual(want, lanes[v % 4],
                                      "MatMul vs DotPanel4 lane", dim))
              << BackendName(backend) << " r=" << r << " v=" << v;
        }
      }
    }
    SetBackendForTest(prev);
  }
}

// The old RowMax carried an "up to the sign of equal zeros" caveat; the
// trailing +0.0 normalization removes it. Pin: any arrangement of signed
// zeros as the maximum must return +0.0 exactly, in every backend.
TEST(KernelBitIdentityTest, RowMaxNormalizesSignedZeros) {
  const KernelOps* s = GetScalarOps();
  const KernelOps& d = Ops();
  const Scalar pz = 0.0, nz = -0.0;
  for (int n = 1; n <= 64; ++n) {
    for (int variant = 0; variant < 4; ++variant) {
      std::vector<Scalar> x(static_cast<size_t>(n), -1.0);
      // Scatter zeros of alternating / fixed signs over the row.
      for (int i = 0; i < n; ++i) {
        if (variant == 0) x[static_cast<size_t>(i)] = nz;
        if (variant == 1) x[static_cast<size_t>(i)] = (i % 2 == 0) ? nz : pz;
        if (variant == 2 && i == n - 1) x[static_cast<size_t>(i)] = nz;
        if (variant == 3 && i == 0) x[static_cast<size_t>(i)] = nz;
      }
      const Scalar ms = s->row_max(x.data(), n);
      const Scalar md = d.row_max(x.data(), n);
      EXPECT_TRUE(ScalarBitsEqual(ms, md, "RowMax(zeros)", n));
      EXPECT_EQ(ms, 0.0);
      EXPECT_FALSE(std::signbit(ms)) << "RowMax returned -0.0 at n=" << n;
    }
  }
}

TEST(KernelExpTest, ExpDTracksStdExpWithinTwoUlp) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<Scalar> uni(-700.0, 700.0);
  for (int i = 0; i < 20000; ++i) {
    const Scalar x = uni(rng);
    const Scalar got = detail::ExpD(x);
    const Scalar want = std::exp(x);
    EXPECT_NEAR(got, want, 2e-15 * want) << "x=" << x;
  }
  EXPECT_EQ(detail::ExpD(0.0), 1.0);
  EXPECT_EQ(detail::ExpD(-0.0), 1.0);
  EXPECT_NEAR(detail::ExpD(1.0), std::exp(1.0), 2e-15 * std::exp(1.0));
}

TEST(KernelExpTest, ExpDClampEdgesMatchAcrossBackends) {
  const KernelOps* s = GetScalarOps();
  const KernelOps& d = Ops();
  const Scalar inf = std::numeric_limits<Scalar>::infinity();
  const std::vector<Scalar> edges = {-746.0, -745.5, -710.0, 709.7,
                                     709.9,  -1000.0, 1000.0, -inf,
                                     inf,    0.0,     -0.0};
  const int n = static_cast<int>(edges.size());
  std::vector<Scalar> es(edges.size()), ed(edges.size());
  s->exp_row(edges.data(), 0.0, es.data(), n);
  d.exp_row(edges.data(), 0.0, ed.data(), n);
  EXPECT_TRUE(BitsEqual(es, ed, "ExpRow(edges)", n));
  // Below the clamp everything lands on the same (underflowed) value.
  EXPECT_EQ(es[0], es[1]);
  EXPECT_EQ(es[5], es[1]);        // -1000 clamps like -746
  EXPECT_EQ(es[7], es[1]);        // -inf clamps to the low edge
  EXPECT_EQ(es[6], inf);          // 1000 overflows to inf
  EXPECT_EQ(es[8], inf);          // +inf stays inf
  EXPECT_EQ(es[9], 1.0);
  EXPECT_EQ(es[10], 1.0);
  EXPECT_GE(es[4], std::numeric_limits<Scalar>::max() / 2);  // 709.9 huge
}

// End-to-end: a small train step (MatMul -> activations -> softmax loss ->
// Adam) must produce identical parameter bits under the scalar table and
// the dispatched table. This exercises the kernels through every call
// site (tensor.cc, autograd.cc, optim.cc) rather than in isolation.
TEST(KernelBackendInvarianceTest, TrainStepBitsMatchScalarBackend) {
  auto run = [](Backend b) {
    const Backend prev = SetBackendForTest(b);
    Tensor xin(8, 6);
    Tensor target(8, 5);
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<Scalar> uni(-1.0, 1.0);
    for (int64_t i = 0; i < xin.size(); ++i) xin.data()[i] = uni(rng);
    for (int r = 0; r < 8; ++r) target.at(r, r % 5) = 1.0;

    Var w1 = Var::Param(Tensor(6, 7));
    Var w2 = Var::Param(Tensor(7, 5));
    std::mt19937_64 wrng(99);
    for (int64_t i = 0; i < w1.value().size(); ++i)
      w1.mutable_value().data()[i] = uni(wrng);
    for (int64_t i = 0; i < w2.value().size(); ++i)
      w2.mutable_value().data()[i] = uni(wrng);

    Adam opt({w1, w2}, 1e-2);
    for (int step = 0; step < 3; ++step) {
      opt.ZeroGrad();
      Var h = Sigmoid(MatMul(Var::Constant(xin), w1));
      h = Relu(h);
      Var logits = MatMul(h, w2);
      Var loss = RowCrossEntropyWithLogits(logits, target);
      Backward(loss);
      opt.Step();
    }
    std::vector<Scalar> out;
    for (int64_t i = 0; i < w1.value().size(); ++i)
      out.push_back(w1.value().data()[i]);
    for (int64_t i = 0; i < w2.value().size(); ++i)
      out.push_back(w2.value().data()[i]);
    SetBackendForTest(prev);
    return out;
  };

  const std::vector<Scalar> scalar_bits = run(Backend::kScalar);
  const std::vector<Scalar> active_bits = run(ActiveBackend());
  EXPECT_TRUE(BitsEqual(scalar_bits, active_bits, "TrainStep", 0));
}

}  // namespace
}  // namespace tgsim::nn::kernels
