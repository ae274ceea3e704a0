// AVX2 kernel table. Compiled only on x86-64 with
// TGSIM_HAVE_AVX2_KERNELS, with -mavx2 -ffp-contract=off and WITHOUT
// -mfma: no FMA intrinsics appear here, so every multiply and add is a
// separately rounded IEEE op — the same two-rounding sequence the scalar
// reference performs. Each kernel mirrors its scalar counterpart lane for
// lane (see kernels.h for the shape contract); the scalar tails reuse the
// exact reference expressions.
#if defined(TGSIM_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <algorithm>

#include "nn/kernels.h"
#include "nn/simd.h"

namespace tgsim::nn::kernels {
namespace {

/// Vector ExpD: identical operation sequence to detail::ExpD, four lanes
/// at a time. The clamp order (max_pd(lo, x), min_pd(hi, xs)) is what the
/// scalar ternaries mirror, so +/-inf and out-of-range inputs land on the
/// same bits. k is integral after the magic-shift round, so the epi32
/// conversion is exact; the exponent split k1 = k >> 1, k2 = k - k1 is
/// done in 32-bit (AVX2 has no 64-bit arithmetic shift) and matches the
/// scalar int64 arithmetic on this bounded range.
inline __m256d ExpV(__m256d x) {
  const __m256d lo = _mm256_set1_pd(detail::kExpLo);
  const __m256d hi = _mm256_set1_pd(detail::kExpHi);
  __m256d xs = _mm256_max_pd(lo, x);
  xs = _mm256_min_pd(hi, xs);
  const __m256d shift = _mm256_set1_pd(detail::kExpShift);
  const __m256d t = _mm256_add_pd(
      _mm256_mul_pd(xs, _mm256_set1_pd(detail::kExpLog2e)), shift);
  const __m256d k = _mm256_sub_pd(t, shift);
  __m256d r =
      _mm256_sub_pd(xs, _mm256_mul_pd(k, _mm256_set1_pd(detail::kExpLn2Hi)));
  r = _mm256_sub_pd(r, _mm256_mul_pd(k, _mm256_set1_pd(detail::kExpLn2Lo)));
  __m256d p = _mm256_set1_pd(detail::kExpCoeff[13]);
  for (int j = 12; j >= 0; --j)
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(detail::kExpCoeff[j]));
  const __m128i ki = _mm256_cvtpd_epi32(k);
  const __m128i k1 = _mm_srai_epi32(ki, 1);
  const __m128i k2 = _mm_sub_epi32(ki, k1);
  const __m128i bias = _mm_set1_epi32(1023);
  const __m256i e1 = _mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm_add_epi32(k1, bias)), 52);
  const __m256i e2 = _mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm_add_epi32(k2, bias)), 52);
  const __m256d s1 = _mm256_castsi256_pd(e1);
  const __m256d s2 = _mm256_castsi256_pd(e2);
  return _mm256_mul_pd(_mm256_mul_pd(p, s1), s2);
}

Scalar RowMaxAvx2(const Scalar* x, int n) {
  // Max over a set is a unique value (up to zero sign, normalized by the
  // trailing +0.0), so unlike sums it may be reduced in any shape: four
  // independent accumulator chains break the vmaxpd latency chain that
  // would otherwise cap throughput at one element per cycle.
  if (n < 8) return scalar::RowMax(x, n);
  __m256d a0 = _mm256_loadu_pd(x);
  __m256d a1 = a0, a2 = a0, a3 = a0;
  int i = 4;
  for (; i + 15 < n; i += 16) {
    a0 = _mm256_max_pd(_mm256_loadu_pd(x + i), a0);
    a1 = _mm256_max_pd(_mm256_loadu_pd(x + i + 4), a1);
    a2 = _mm256_max_pd(_mm256_loadu_pd(x + i + 8), a2);
    a3 = _mm256_max_pd(_mm256_loadu_pd(x + i + 12), a3);
  }
  for (; i + 3 < n; i += 4) a0 = _mm256_max_pd(_mm256_loadu_pd(x + i), a0);
  __m256d acc = _mm256_max_pd(_mm256_max_pd(a0, a1), _mm256_max_pd(a2, a3));
  Scalar m[4];
  _mm256_storeu_pd(m, acc);
  for (; i < n; ++i) m[0] = x[i] > m[0] ? x[i] : m[0];
  m[0] = m[1] > m[0] ? m[1] : m[0];
  m[2] = m[3] > m[2] ? m[3] : m[2];
  return (m[2] > m[0] ? m[2] : m[0]) + 0.0;
}

Scalar ExpRowSumAvx2(const Scalar* x, Scalar m, Scalar* dst, int n) {
  const __m256d mv = _mm256_set1_pd(m);
  __m256d acc = _mm256_setzero_pd();  // lanes = a0..a3
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d e = ExpV(_mm256_sub_pd(_mm256_loadu_pd(x + i), mv));
    _mm256_storeu_pd(dst + i, e);
    acc = _mm256_add_pd(acc, e);
  }
  Scalar a[4];
  _mm256_storeu_pd(a, acc);
  Scalar z = ((a[0] + a[1]) + a[2]) + a[3];
  for (; i < n; ++i) {
    dst[i] = detail::ExpD(x[i] - m);
    z += dst[i];
  }
  return z;
}

void ExpRowAvx2(const Scalar* x, Scalar m, Scalar* dst, int n) {
  const __m256d mv = _mm256_set1_pd(m);
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(dst + i,
                     ExpV(_mm256_sub_pd(_mm256_loadu_pd(x + i), mv)));
  for (; i < n; ++i) dst[i] = detail::ExpD(x[i] - m);
}

void DivRowAvx2(Scalar* x, Scalar z, int n) {
  const __m256d zv = _mm256_set1_pd(z);
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(x + i, _mm256_div_pd(_mm256_loadu_pd(x + i), zv));
  for (; i < n; ++i) x[i] /= z;
}

void AxpyRowAvx2(Scalar a, const Scalar* b, Scalar* o, int n) {
  const __m256d av = _mm256_set1_pd(a);
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(
        o + i, _mm256_add_pd(_mm256_loadu_pd(o + i),
                             _mm256_mul_pd(av, _mm256_loadu_pd(b + i))));
  for (; i < n; ++i) o[i] += a * b[i];
}

// Depth of one k-block of MatMulPanelAvx2: a packed kPanelKBlock x 8 block
// of b (16 KiB) stays in L1 while every row tile of the panel streams over
// it.
constexpr int kPanelKBlock = 256;

// MatMulPanel, register-tiled. For each k-block of kPanelKBlock rows of b
// and each 8-column (then 4-column) strip of it, the strip is packed into
// a contiguous stack buffer, and every row tile of the panel keeps its
// R x 4V output tile in R * V ymm accumulators across the whole block.
// The first block starts every chain at +0.0; a later block reloads the
// partial chain its predecessor stored in c (a store and reload is exact),
// so per element the adds run in ascending p exactly as in the reference.
// Multiply, then add: never a fused multiply-add.
//
// The fixed R and V loops are unrolled explicitly so the accumulators stay
// in registers at -O2 too.
template <int R, int V>
void PanelTile(const Scalar* a, int64_t lda, const Scalar* pack, int kc,
               Scalar* c, int64_t ldc, bool first) {
  __m256d acc[R][V];
#pragma GCC unroll 4
  for (int i = 0; i < R; ++i)
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v)
      acc[i][v] = first ? _mm256_setzero_pd()
                        : _mm256_loadu_pd(c + i * ldc + 4 * v);
  for (int p = 0; p < kc; ++p) {
    __m256d bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v)
      bv[v] = _mm256_load_pd(pack + (4 * V) * p + 4 * v);
#pragma GCC unroll 4
    for (int i = 0; i < R; ++i) {
      const __m256d x = _mm256_broadcast_sd(a + i * lda + p);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v)
        acc[i][v] = _mm256_add_pd(acc[i][v], _mm256_mul_pd(x, bv[v]));
    }
  }
#pragma GCC unroll 4
  for (int i = 0; i < R; ++i)
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v)
      _mm256_storeu_pd(c + i * ldc + 4 * v, acc[i][v]);
}

// One output column (n % 4 leftovers; the whole product when n == 1), R
// rows in flight as independent scalar chains.
template <int R>
void PanelColumn(const Scalar* a, int64_t lda, const Scalar* pack, int kc,
                 Scalar* c, int64_t ldc, bool first) {
  Scalar acc[R];
#pragma GCC unroll 4
  for (int i = 0; i < R; ++i) acc[i] = first ? 0.0 : c[i * ldc];
  for (int p = 0; p < kc; ++p)
#pragma GCC unroll 4
    for (int i = 0; i < R; ++i) acc[i] = acc[i] + a[i * lda + p] * pack[p];
#pragma GCC unroll 4
  for (int i = 0; i < R; ++i) c[i * ldc] = acc[i];
}

// Packs columns [j, j + 4V) of kc rows of b, then runs 4-row tiles and a
// 1-row tail over the panel's rows.
template <int V>
void PanelStrip(const Scalar* a, int64_t lda, const Scalar* b, int64_t ldb,
                Scalar* c, int64_t ldc, int rows, int kc, bool first,
                Scalar* pack) {
  for (int p = 0; p < kc; ++p)
    for (int v = 0; v < V; ++v)
      _mm256_store_pd(pack + (4 * V) * p + 4 * v,
                      _mm256_loadu_pd(b + p * ldb + 4 * v));
  int r = 0;
  for (; r + 4 <= rows; r += 4)
    PanelTile<4, V>(a + r * lda, lda, pack, kc, c + r * ldc, ldc, first);
  for (; r < rows; ++r)
    PanelTile<1, V>(a + r * lda, lda, pack, kc, c + r * ldc, ldc, first);
}

void MatMulPanelAvx2(const Scalar* a, int64_t lda, const Scalar* b,
                     int64_t ldb, Scalar* c, int64_t ldc, int rows, int k,
                     int n) {
  if (k == 0) {
    for (int r = 0; r < rows; ++r)
      for (int j = 0; j < n; ++j) c[r * ldc + j] = 0.0;
    return;
  }
  alignas(32) Scalar pack[kPanelKBlock * 8];
  for (int p0 = 0; p0 < k; p0 += kPanelKBlock) {
    const int kc = std::min(kPanelKBlock, k - p0);
    const bool first = p0 == 0;
    const Scalar* ab = a + p0;
    const Scalar* bb = b + p0 * ldb;
    int j = 0;
    for (; j + 8 <= n; j += 8)
      PanelStrip<2>(ab, lda, bb + j, ldb, c + j, ldc, rows, kc, first, pack);
    if (j + 4 <= n) {
      PanelStrip<1>(ab, lda, bb + j, ldb, c + j, ldc, rows, kc, first, pack);
      j += 4;
    }
    for (; j < n; ++j) {
      for (int p = 0; p < kc; ++p) pack[p] = bb[p * ldb + j];
      int r = 0;
      for (; r + 4 <= rows; r += 4)
        PanelColumn<4>(ab + r * lda, lda, pack, kc, c + r * ldc + j, ldc,
                       first);
      for (; r < rows; ++r)
        PanelColumn<1>(ab + r * lda, lda, pack, kc, c + r * ldc + j, ldc,
                       first);
    }
  }
}

void AddRowAvx2(Scalar* dst, const Scalar* x, int n) {
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(x + i)));
  for (; i < n; ++i) dst[i] += x[i];
}

void ScaleRowAvx2(Scalar* x, Scalar s, int n) {
  const __m256d sv = _mm256_set1_pd(s);
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), sv));
  for (; i < n; ++i) x[i] *= s;
}

void MulRowAvx2(Scalar* dst, const Scalar* x, int n) {
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(x + i)));
  for (; i < n; ++i) dst[i] *= x[i];
}

void MulAddRowAvx2(Scalar* dst, const Scalar* a, const Scalar* b, int n) {
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(
        dst + i,
        _mm256_add_pd(_mm256_loadu_pd(dst + i),
                      _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                    _mm256_loadu_pd(b + i))));
  for (; i < n; ++i) dst[i] = dst[i] + a[i] * b[i];
}

void ShiftRowAvx2(const Scalar* x, Scalar s, Scalar* dst, int n) {
  const __m256d sv = _mm256_set1_pd(s);
  int i = 0;
  for (; i + 3 < n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_sub_pd(_mm256_loadu_pd(x + i), sv));
  for (; i < n; ++i) dst[i] = x[i] - s;
}

void SigmoidRowAvx2(const Scalar* x, Scalar* dst, int n) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign = _mm256_set1_pd(-0.0);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    // xor with the sign bit is exact negation, matching scalar -x[i].
    const __m256d e = ExpV(_mm256_xor_pd(_mm256_loadu_pd(x + i), sign));
    _mm256_storeu_pd(dst + i, _mm256_div_pd(one, _mm256_add_pd(one, e)));
  }
  for (; i < n; ++i) dst[i] = 1.0 / (1.0 + detail::ExpD(-x[i]));
}

void SigmoidBwdRowAvx2(const Scalar* go, const Scalar* y, Scalar* gi,
                       int n) {
  const __m256d one = _mm256_set1_pd(1.0);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d yv = _mm256_loadu_pd(y + i);
    const __m256d dydx = _mm256_mul_pd(yv, _mm256_sub_pd(one, yv));
    _mm256_storeu_pd(
        gi + i,
        _mm256_add_pd(_mm256_loadu_pd(gi + i),
                      _mm256_mul_pd(_mm256_loadu_pd(go + i), dydx)));
  }
  for (; i < n; ++i) gi[i] += go[i] * (y[i] * (1.0 - y[i]));
}

void ReluRowAvx2(const Scalar* x, Scalar* dst, int n) {
  const __m256d zero = _mm256_setzero_pd();
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d mask = _mm256_cmp_pd(xv, zero, _CMP_GT_OQ);
    _mm256_storeu_pd(dst + i, _mm256_blendv_pd(zero, xv, mask));
  }
  for (; i < n; ++i) dst[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void ReluBwdRowAvx2(const Scalar* go, const Scalar* x, Scalar* gi, int n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d mask =
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), zero, _CMP_GT_OQ);
    // A real multiply by the blended 1.0/0.0 (not a mask-and): go * 0.0
    // keeps go's sign on the zero, like the scalar reference.
    const __m256d d = _mm256_blendv_pd(zero, one, mask);
    _mm256_storeu_pd(
        gi + i, _mm256_add_pd(_mm256_loadu_pd(gi + i),
                              _mm256_mul_pd(_mm256_loadu_pd(go + i), d)));
  }
  for (; i < n; ++i) gi[i] += go[i] * (x[i] > 0.0 ? 1.0 : 0.0);
}

void LeakyReluRowAvx2(const Scalar* x, Scalar slope, Scalar* dst, int n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sv = _mm256_set1_pd(slope);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d mask = _mm256_cmp_pd(xv, zero, _CMP_GT_OQ);
    _mm256_storeu_pd(dst + i,
                     _mm256_blendv_pd(_mm256_mul_pd(sv, xv), xv, mask));
  }
  for (; i < n; ++i) dst[i] = x[i] > 0.0 ? x[i] : slope * x[i];
}

void LeakyReluBwdRowAvx2(const Scalar* go, const Scalar* x, Scalar slope,
                         Scalar* gi, int n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sv = _mm256_set1_pd(slope);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d mask =
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), zero, _CMP_GT_OQ);
    const __m256d d = _mm256_blendv_pd(sv, one, mask);
    _mm256_storeu_pd(
        gi + i, _mm256_add_pd(_mm256_loadu_pd(gi + i),
                              _mm256_mul_pd(_mm256_loadu_pd(go + i), d)));
  }
  for (; i < n; ++i) gi[i] += go[i] * (x[i] > 0.0 ? 1.0 : slope);
}

void SoftmaxBwdRowAvx2(const Scalar* go, const Scalar* y, Scalar dot,
                       Scalar* gi, int n) {
  const __m256d dv = _mm256_set1_pd(dot);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d t =
        _mm256_mul_pd(_mm256_loadu_pd(y + i),
                      _mm256_sub_pd(_mm256_loadu_pd(go + i), dv));
    _mm256_storeu_pd(gi + i, _mm256_add_pd(_mm256_loadu_pd(gi + i), t));
  }
  for (; i < n; ++i) gi[i] += y[i] * (go[i] - dot);
}

void LogSoftmaxBwdRowAvx2(const Scalar* go, const Scalar* p, Scalar gsum,
                          Scalar* gi, int n) {
  const __m256d gv = _mm256_set1_pd(gsum);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d t =
        _mm256_sub_pd(_mm256_loadu_pd(go + i),
                      _mm256_mul_pd(_mm256_loadu_pd(p + i), gv));
    _mm256_storeu_pd(gi + i, _mm256_add_pd(_mm256_loadu_pd(gi + i), t));
  }
  for (; i < n; ++i) gi[i] += go[i] - p[i] * gsum;
}

void AdamRowAvx2(Scalar* x, Scalar* m, Scalar* v, const Scalar* g,
                 Scalar beta1, Scalar one_minus_beta1, Scalar beta2,
                 Scalar one_minus_beta2, Scalar bias1, Scalar bias2,
                 Scalar lr, Scalar eps, int n) {
  const __m256d b1v = _mm256_set1_pd(beta1);
  const __m256d ob1v = _mm256_set1_pd(one_minus_beta1);
  const __m256d b2v = _mm256_set1_pd(beta2);
  const __m256d ob2v = _mm256_set1_pd(one_minus_beta2);
  const __m256d bias1v = _mm256_set1_pd(bias1);
  const __m256d bias2v = _mm256_set1_pd(bias2);
  const __m256d lrv = _mm256_set1_pd(lr);
  const __m256d epsv = _mm256_set1_pd(eps);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    const __m256d gv = _mm256_loadu_pd(g + i);
    const __m256d mv = _mm256_add_pd(
        _mm256_mul_pd(b1v, _mm256_loadu_pd(m + i)), _mm256_mul_pd(ob1v, gv));
    const __m256d vv =
        _mm256_add_pd(_mm256_mul_pd(b2v, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(ob2v, gv), gv));
    _mm256_storeu_pd(m + i, mv);
    _mm256_storeu_pd(v + i, vv);
    const __m256d m_hat = _mm256_div_pd(mv, bias1v);
    const __m256d v_hat = _mm256_div_pd(vv, bias2v);
    const __m256d step = _mm256_div_pd(
        _mm256_mul_pd(lrv, m_hat),
        _mm256_add_pd(_mm256_sqrt_pd(v_hat), epsv));
    _mm256_storeu_pd(x + i, _mm256_sub_pd(_mm256_loadu_pd(x + i), step));
  }
  for (; i < n; ++i) {
    const Scalar gj = g[i];
    m[i] = beta1 * m[i] + one_minus_beta1 * gj;
    v[i] = beta2 * v[i] + (one_minus_beta2 * gj) * gj;
    const Scalar m_hat = m[i] / bias1;
    const Scalar v_hat = v[i] / bias2;
    x[i] -= (lr * m_hat) / (std::sqrt(v_hat) + eps);
  }
}

const KernelOps kAvx2Ops = {
    RowMaxAvx2,
    ExpRowSumAvx2,
    ExpRowAvx2,
    DivRowAvx2,
    AxpyRowAvx2,
    MatMulPanelAvx2,
    AddRowAvx2,
    ScaleRowAvx2,
    MulRowAvx2,
    MulAddRowAvx2,
    ShiftRowAvx2,
    SigmoidRowAvx2,
    SigmoidBwdRowAvx2,
    ReluRowAvx2,
    ReluBwdRowAvx2,
    LeakyReluRowAvx2,
    LeakyReluBwdRowAvx2,
    SoftmaxBwdRowAvx2,
    LogSoftmaxBwdRowAvx2,
    AdamRowAvx2,
};

}  // namespace

const KernelOps* GetAvx2Ops() { return &kAvx2Ops; }

}  // namespace tgsim::nn::kernels

#endif  // TGSIM_HAVE_AVX2_KERNELS
