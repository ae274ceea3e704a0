#ifndef TGSIM_NN_KERNELS_H_
#define TGSIM_NN_KERNELS_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "nn/simd.h"
#include "nn/tensor.h"

#define TGSIM_RESTRICT __restrict__

namespace tgsim::nn::kernels {

/// Row-level microkernels shared by the Tensor math, the autograd tape,
/// the Adam step, and the generators' hand-rolled logit/softmax loops.
/// The public entry points below dispatch through a per-ISA table resolved
/// once at runtime (see simd.h); `kernels::scalar` holds the reference
/// implementations every backend must match bit for bit. The determinism
/// contract:
///
///  - Sums keep a single strictly ascending-index, left-associated
///    accumulation chain per OUTPUT: FP addition is not associative, and
///    the contract pins outputs bit-identical to the serial reference at
///    any thread count and on any backend. SIMD variants may only
///    vectorize across independent outputs.
///  - ExpRowSum's sum is the one sanctioned fixed-shape reduction,
///    defined once as scalar::FixedShapeSum: four accumulators fed from
///    consecutive indices, combined ((a0+a1)+a2)+a3, with an ascending
///    scalar tail. The shape depends only on n, so the scalar reference
///    and every SIMD variant produce the same bits, and a caller that
///    takes the exps from ExpRow gets the same z from FixedShapeSum.
///  - exp() is NOT glibc's: all backends share detail::ExpD, a clamped
///    Cody-Waite + degree-13 Horner polynomial whose operations map 1:1
///    onto SIMD lanes. Accuracy is ~1-2 ulp; inputs must not be NaN
///    (callers never produce one — logits and losses are NaN-free by
///    construction, and TGSIM_DCHECK guards the debug build).
///  - Max reductions use a fixed 4-lane shape and normalize the result
///    with `+ 0.0`, so equal-magnitude zeros of either sign reduce to the
///    same bits as the serial scan (the old "up to the sign of equal
///    zeros" caveat is gone).
///  - Per-element maps (exp, divide, multiply, axpy) vectorize freely:
///    each output element is an independent exact IEEE operation.
///
/// Aliasing: elementwise kernels whose doc says "in place allowed" accept
/// full aliasing (dst == src exactly); partial overlap is never allowed.
///
/// `Dot`, `DotStrided` and `DotSum2` are intentionally the serial chain in
/// EVERY backend: a single-accumulator FP add chain is latency-bound, lanes
/// cannot speed it up without changing the association, and the TGAE
/// sparse/dense pin plus MatMul's per-column k-accumulation depend on that
/// association. Throughput comes from keeping several independent chains
/// in flight (one per output, as the graph attention scores four edges at
/// a time), never from splitting one chain. They bypass the dispatch table
/// entirely so the compiler can keep inlining them into the generation hot
/// loops.

namespace detail {

// Deterministic exp shared by all backends. Clamp bounds keep the
// magic-shift rounding and the 2^k scaling in exact range: below kExpLo
// the true result underflows to 0 even through the two-step scaling,
// above kExpHi it overflows to inf.
inline constexpr Scalar kExpLo = -745.5;
inline constexpr Scalar kExpHi = 709.9;
// 1.5 * 2^52: adding then subtracting rounds to nearest integer in the
// current (round-to-nearest) mode — same trick scalar and vector.
inline constexpr Scalar kExpShift = 6755399441055744.0;
inline constexpr Scalar kExpLog2e = 1.44269504088896340736;
// fdlibm split of ln 2: k * kExpLn2Hi is exact for |k| <= 1075 (11 bits
// of k against 33 significant bits of the hi part).
inline constexpr Scalar kExpLn2Hi = 6.93147180369123816490e-01;
inline constexpr Scalar kExpLn2Lo = 1.90821492927058770002e-10;
inline constexpr Scalar kExpCoeff[14] = {
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
    1.0 / 6227020800.0,
};

/// exp(x) to ~1-2 ulp with every step an exact lane-parallel IEEE op.
/// The two clamp lines mirror _mm256_max_pd(lo, x) / _mm256_min_pd(hi, x)
/// operand order so +/-inf and out-of-range inputs take identical paths
/// in scalar and vector code. Precondition: x is not NaN (the scalar
/// int64 cast of NaN would be UB).
inline Scalar ExpD(Scalar x) {
  Scalar xs = kExpLo > x ? kExpLo : x;
  xs = kExpHi < xs ? kExpHi : xs;
  const Scalar t = xs * kExpLog2e + kExpShift;
  const Scalar k = t - kExpShift;
  Scalar r = xs - k * kExpLn2Hi;
  r = r - k * kExpLn2Lo;
  Scalar p = kExpCoeff[13];
  for (int j = 12; j >= 0; --j) p = p * r + kExpCoeff[j];
  // Split 2^k into 2^k1 * 2^k2 so the intermediate scale factors stay
  // normal even when the result is denormal or near overflow.
  const int64_t ki = static_cast<int64_t>(k);
  const int64_t k1 = ki >> 1;
  const int64_t k2 = ki - k1;
  const Scalar s1 =
      std::bit_cast<Scalar>(static_cast<uint64_t>(k1 + 1023) << 52);
  const Scalar s2 =
      std::bit_cast<Scalar>(static_cast<uint64_t>(k2 + 1023) << 52);
  return (p * s1) * s2;
}

}  // namespace detail

namespace scalar {

/// Maximum over x[0..n), n >= 1, normalized so a zero maximum is always
/// +0.0. Fixed 4-lane shape (mirrored lane for lane by the SIMD
/// variants); max over non-NaN doubles is associative/commutative and the
/// trailing `+ 0.0` collapses -0.0 to +0.0, so the result is bit-identical
/// to the serial scan regardless of lane combination order.
inline Scalar RowMax(const Scalar* TGSIM_RESTRICT x, int n) {
  if (n < 8) {
    Scalar m = x[0];
    for (int i = 1; i < n; ++i) m = x[i] > m ? x[i] : m;
    return m + 0.0;
  }
  Scalar m0 = x[0], m1 = x[1], m2 = x[2], m3 = x[3];
  int i = 4;
  for (; i + 3 < n; i += 4) {
    m0 = x[i] > m0 ? x[i] : m0;
    m1 = x[i + 1] > m1 ? x[i + 1] : m1;
    m2 = x[i + 2] > m2 ? x[i + 2] : m2;
    m3 = x[i + 3] > m3 ? x[i + 3] : m3;
  }
  for (; i < n; ++i) m0 = x[i] > m0 ? x[i] : m0;
  m0 = m1 > m0 ? m1 : m0;
  m2 = m3 > m2 ? m3 : m2;
  return (m2 > m0 ? m2 : m0) + 0.0;
}

/// The fixed-shape sum of x[0..n), n >= 0, that ExpRowSum returns: four
/// accumulators over the i+3 < n prefix (accumulator l takes indices
/// congruent to l mod 4), combined ((a0+a1)+a2)+a3, then an ascending
/// scalar tail.
inline Scalar FixedShapeSum(const Scalar* TGSIM_RESTRICT x, int n) {
  Scalar a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  int i = 0;
  for (; i + 3 < n; i += 4) {
    a0 += x[i];
    a1 += x[i + 1];
    a2 += x[i + 2];
    a3 += x[i + 3];
  }
  Scalar z = ((a0 + a1) + a2) + a3;
  for (; i < n; ++i) z += x[i];
  return z;
}

/// dst[i] = ExpD(x[i] - m), no sum. In place allowed.
inline void ExpRow(const Scalar* x, Scalar m, Scalar* dst, int n) {
  for (int i = 0; i < n; ++i) dst[i] = detail::ExpD(x[i] - m);
}

/// dst[i] = ExpD(x[i] - m); returns FixedShapeSum(dst, n). In place
/// allowed (dst == x).
inline Scalar ExpRowSum(const Scalar* x, Scalar m, Scalar* dst, int n) {
  ExpRow(x, m, dst, n);
  return FixedShapeSum(dst, n);
}

/// x[i] /= z: exact per-element IEEE division (kept as a division, never
/// a reciprocal multiply).
inline void DivRow(Scalar* TGSIM_RESTRICT x, Scalar z, int n) {
  for (int i = 0; i < n; ++i) x[i] /= z;
}

/// Ascending-index dot product: single left-associated chain —
/// bit-identical to the naive loop (and to the k-accumulation of a MatMul
/// output column, which the TGAE sparse/dense pin relies on).
inline Scalar Dot(const Scalar* TGSIM_RESTRICT a,
                  const Scalar* TGSIM_RESTRICT b, int n) {
  Scalar s = 0.0;
  for (int k = 0; k < n; ++k) s += a[k] * b[k];
  return s;
}

/// Ascending-index sum_k a[k] * (b1[k] + b2[k]) — the TagGen transition
/// logit against a candidate embedding split into node + time halves.
inline Scalar DotSum2(const Scalar* TGSIM_RESTRICT a,
                      const Scalar* TGSIM_RESTRICT b1,
                      const Scalar* TGSIM_RESTRICT b2, int n) {
  Scalar s = 0.0;
  for (int k = 0; k < n; ++k) s += a[k] * (b1[k] + b2[k]);
  return s;
}

/// o[j] += a * b[j]: one rank-1 row update (the MatMulPanel reference step).
inline void AxpyRow(Scalar a, const Scalar* TGSIM_RESTRICT b,
                    Scalar* TGSIM_RESTRICT o, int n) {
  for (int j = 0; j < n; ++j) o[j] += a * b[j];
}

/// c[r][j] = sum over ascending p < k of a[r][p] * b[p][j], for r < rows
/// and j < n: the MatMul panel kernel over row-major operands with leading
/// dimensions lda, ldb and ldc. Overwrites c. Each output element is one
/// left-associated chain from +0.0 in ascending p, so k == 0 writes +0.0
/// and an all-signed-zero row still sums to +0.0. The reference is the ikj
/// AxpyRow loop, blocked over 64-deep slices of k so a slice of b stays in
/// L2 across the panel's rows: a slice resumes each chain from the value c
/// holds. SIMD variants tile across output rows and columns (independent
/// outputs) and keep that chain per element; storing a partial chain in c
/// and reloading it between k-blocks is exact.
inline void MatMulPanel(const Scalar* TGSIM_RESTRICT a, int64_t lda,
                        const Scalar* TGSIM_RESTRICT b, int64_t ldb,
                        Scalar* TGSIM_RESTRICT c, int64_t ldc, int rows,
                        int k, int n) {
  constexpr int kKBlock = 64;
  for (int r = 0; r < rows; ++r)
    for (int j = 0; j < n; ++j) c[r * ldc + j] = 0.0;
  for (int p0 = 0; p0 < k; p0 += kKBlock) {
    const int p1 = std::min(k, p0 + kKBlock);
    for (int r = 0; r < rows; ++r) {
      const Scalar* ar = a + r * lda;
      Scalar* cr = c + r * ldc;
      int p = p0;
      // Four k per pass over the row. C++ `+` is left-associative, so each
      // element gets exactly the chain of four AxpyRow passes.
      for (; p + 3 < p1; p += 4) {
        const Scalar* b0 = b + p * ldb;
        const Scalar* b1 = b0 + ldb;
        const Scalar* b2 = b1 + ldb;
        const Scalar* b3 = b2 + ldb;
        for (int j = 0; j < n; ++j)
          cr[j] = cr[j] + ar[p] * b0[j] + ar[p + 1] * b1[j] +
                  ar[p + 2] * b2[j] + ar[p + 3] * b3[j];
      }
      for (; p < p1; ++p) AxpyRow(ar[p], b + p * ldb, cr, n);
    }
  }
}

/// dst[i] += x[i].
inline void AddRow(Scalar* TGSIM_RESTRICT dst, const Scalar* TGSIM_RESTRICT x,
                   int n) {
  for (int i = 0; i < n; ++i) dst[i] += x[i];
}

/// x[i] *= s.
inline void ScaleRow(Scalar* TGSIM_RESTRICT x, Scalar s, int n) {
  for (int i = 0; i < n; ++i) x[i] *= s;
}

/// dst[i] *= x[i]. In place allowed.
inline void MulRow(Scalar* dst, const Scalar* x, int n) {
  for (int i = 0; i < n; ++i) dst[i] *= x[i];
}

/// dst[i] += a[i] * b[i] (two roundings: multiply then add — never fused).
inline void MulAddRow(Scalar* TGSIM_RESTRICT dst,
                      const Scalar* TGSIM_RESTRICT a,
                      const Scalar* TGSIM_RESTRICT b, int n) {
  for (int i = 0; i < n; ++i) dst[i] = dst[i] + a[i] * b[i];
}

/// dst[i] = x[i] - s. In place allowed.
inline void ShiftRow(const Scalar* x, Scalar s, Scalar* dst, int n) {
  for (int i = 0; i < n; ++i) dst[i] = x[i] - s;
}

/// dst[i] = 1 / (1 + ExpD(-x[i])). In place allowed.
inline void SigmoidRow(const Scalar* x, Scalar* dst, int n) {
  for (int i = 0; i < n; ++i) dst[i] = 1.0 / (1.0 + detail::ExpD(-x[i]));
}

/// gi[i] += go[i] * (y[i] * (1 - y[i])) — sigmoid backward against the
/// saved forward output y.
inline void SigmoidBwdRow(const Scalar* TGSIM_RESTRICT go,
                          const Scalar* TGSIM_RESTRICT y,
                          Scalar* TGSIM_RESTRICT gi, int n) {
  for (int i = 0; i < n; ++i) gi[i] += go[i] * (y[i] * (1.0 - y[i]));
}

/// dst[i] = x[i] > 0 ? x[i] : +0.0. NOT LeakyRelu with slope 0: that
/// would write -0.0 for negative inputs (0 * -x), this writes +0.0 like
/// the reference ternary.
inline void ReluRow(const Scalar* x, Scalar* dst, int n) {
  for (int i = 0; i < n; ++i) dst[i] = x[i] > 0.0 ? x[i] : 0.0;
}

/// gi[i] += go[i] * (x[i] > 0 ? 1.0 : 0.0). The multiply is real (not a
/// mask-and): go * 0.0 keeps go's sign on the zero, exactly like the
/// serial reference.
inline void ReluBwdRow(const Scalar* TGSIM_RESTRICT go,
                       const Scalar* TGSIM_RESTRICT x,
                       Scalar* TGSIM_RESTRICT gi, int n) {
  for (int i = 0; i < n; ++i) gi[i] += go[i] * (x[i] > 0.0 ? 1.0 : 0.0);
}

/// dst[i] = x[i] > 0 ? x[i] : slope * x[i]. In place allowed.
inline void LeakyReluRow(const Scalar* x, Scalar slope, Scalar* dst, int n) {
  for (int i = 0; i < n; ++i) dst[i] = x[i] > 0.0 ? x[i] : slope * x[i];
}

/// gi[i] += go[i] * (x[i] > 0 ? 1.0 : slope).
inline void LeakyReluBwdRow(const Scalar* TGSIM_RESTRICT go,
                            const Scalar* TGSIM_RESTRICT x, Scalar slope,
                            Scalar* TGSIM_RESTRICT gi, int n) {
  for (int i = 0; i < n; ++i) gi[i] += go[i] * (x[i] > 0.0 ? 1.0 : slope);
}

/// gi[i] += y[i] * (go[i] - dot) — softmax backward with the row dot
/// precomputed by the caller (via Dot, keeping its serial chain).
inline void SoftmaxBwdRow(const Scalar* TGSIM_RESTRICT go,
                          const Scalar* TGSIM_RESTRICT y, Scalar dot,
                          Scalar* TGSIM_RESTRICT gi, int n) {
  for (int i = 0; i < n; ++i) gi[i] += y[i] * (go[i] - dot);
}

/// gi[i] += go[i] - p[i] * gsum — log-softmax backward with the row grad
/// sum precomputed by the caller's serial chain.
inline void LogSoftmaxBwdRow(const Scalar* TGSIM_RESTRICT go,
                             const Scalar* TGSIM_RESTRICT p, Scalar gsum,
                             Scalar* TGSIM_RESTRICT gi, int n) {
  for (int i = 0; i < n; ++i) gi[i] += go[i] - p[i] * gsum;
}

/// One fused Adam update over a contiguous chunk — the exact expression
/// sequence of the serial optimizer loop, element by element:
///   m[j] = beta1*m[j] + (1-beta1)*g[j]
///   v[j] = beta2*v[j] + ((1-beta2)*g[j])*g[j]
///   x[j] -= (lr * (m[j]/bias1)) / (sqrt(v[j]/bias2) + eps)
/// sqrt and divide are correctly rounded, so lanes match scalar exactly.
inline void AdamRow(Scalar* TGSIM_RESTRICT x, Scalar* TGSIM_RESTRICT m,
                    Scalar* TGSIM_RESTRICT v, const Scalar* TGSIM_RESTRICT g,
                    Scalar beta1, Scalar one_minus_beta1, Scalar beta2,
                    Scalar one_minus_beta2, Scalar bias1, Scalar bias2,
                    Scalar lr, Scalar eps, int n) {
  for (int j = 0; j < n; ++j) {
    const Scalar gj = g[j];
    m[j] = beta1 * m[j] + one_minus_beta1 * gj;
    v[j] = beta2 * v[j] + (one_minus_beta2 * gj) * gj;
    const Scalar m_hat = m[j] / bias1;
    const Scalar v_hat = v[j] / bias2;
    x[j] -= (lr * m_hat) / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Public dispatched entry points. Same names and semantics as the scalar
// reference above; each routes through the one-time-resolved backend
// table. Dot/DotStrided/DotSum2 deliberately bypass the table (identical
// in every backend; inlining matters in the generation hot loops).
// ---------------------------------------------------------------------------

inline Scalar RowMax(const Scalar* x, int n) {
  TGSIM_DCHECK(n >= 1);
  return Ops().row_max(x, n);
}

inline Scalar ExpRowSum(const Scalar* x, Scalar m, Scalar* dst, int n) {
  return Ops().exp_row_sum(x, m, dst, n);
}

inline void ExpRow(const Scalar* x, Scalar m, Scalar* dst, int n) {
  Ops().exp_row(x, m, dst, n);
}

inline void DivRow(Scalar* x, Scalar z, int n) { Ops().div_row(x, z, n); }

inline Scalar Dot(const Scalar* TGSIM_RESTRICT a,
                  const Scalar* TGSIM_RESTRICT b, int n) {
  return scalar::Dot(a, b, n);
}

/// Ascending-index sum_k a[k] * b[k * stride]: the same single chain as
/// Dot, down a strided column (column v of a row-major d x n matrix is
/// `data + v` at stride n) — bit-identical to that MatMul output column.
inline Scalar DotStrided(const Scalar* TGSIM_RESTRICT a,
                         const Scalar* TGSIM_RESTRICT b, int64_t stride,
                         int n) {
  Scalar s = 0.0;
  for (int k = 0; k < n; ++k) s += a[k] * b[k * stride];
  return s;
}

inline Scalar DotSum2(const Scalar* TGSIM_RESTRICT a,
                      const Scalar* TGSIM_RESTRICT b1,
                      const Scalar* TGSIM_RESTRICT b2, int n) {
  return scalar::DotSum2(a, b1, b2, n);
}

inline void AxpyRow(Scalar a, const Scalar* b, Scalar* o, int n) {
  Ops().axpy_row(a, b, o, n);
}

inline void MatMulPanel(const Scalar* a, int64_t lda, const Scalar* b,
                        int64_t ldb, Scalar* c, int64_t ldc, int rows, int k,
                        int n) {
  Ops().matmul_panel(a, lda, b, ldb, c, ldc, rows, k, n);
}

inline void AddRow(Scalar* dst, const Scalar* x, int n) {
  Ops().add_row(dst, x, n);
}

inline void ScaleRow(Scalar* x, Scalar s, int n) { Ops().scale_row(x, s, n); }

inline void MulRow(Scalar* dst, const Scalar* x, int n) {
  Ops().mul_row(dst, x, n);
}

inline void MulAddRow(Scalar* dst, const Scalar* a, const Scalar* b, int n) {
  Ops().mul_add_row(dst, a, b, n);
}

inline void ShiftRow(const Scalar* x, Scalar s, Scalar* dst, int n) {
  Ops().shift_row(x, s, dst, n);
}

inline void SigmoidRow(const Scalar* x, Scalar* dst, int n) {
  Ops().sigmoid_row(x, dst, n);
}

inline void SigmoidBwdRow(const Scalar* go, const Scalar* y, Scalar* gi,
                          int n) {
  Ops().sigmoid_bwd_row(go, y, gi, n);
}

inline void ReluRow(const Scalar* x, Scalar* dst, int n) {
  Ops().relu_row(x, dst, n);
}

inline void ReluBwdRow(const Scalar* go, const Scalar* x, Scalar* gi, int n) {
  Ops().relu_bwd_row(go, x, gi, n);
}

inline void LeakyReluRow(const Scalar* x, Scalar slope, Scalar* dst, int n) {
  Ops().leaky_relu_row(x, slope, dst, n);
}

inline void LeakyReluBwdRow(const Scalar* go, const Scalar* x, Scalar slope,
                            Scalar* gi, int n) {
  Ops().leaky_relu_bwd_row(go, x, slope, gi, n);
}

inline void SoftmaxBwdRow(const Scalar* go, const Scalar* y, Scalar dot,
                          Scalar* gi, int n) {
  Ops().softmax_bwd_row(go, y, dot, gi, n);
}

inline void LogSoftmaxBwdRow(const Scalar* go, const Scalar* p, Scalar gsum,
                             Scalar* gi, int n) {
  Ops().logsoftmax_bwd_row(go, p, gsum, gi, n);
}

inline void AdamRow(Scalar* x, Scalar* m, Scalar* v, const Scalar* g,
                    Scalar beta1, Scalar one_minus_beta1, Scalar beta2,
                    Scalar one_minus_beta2, Scalar bias1, Scalar bias2,
                    Scalar lr, Scalar eps, int n) {
  Ops().adam_row(x, m, v, g, beta1, one_minus_beta1, beta2, one_minus_beta2,
                 bias1, bias2, lr, eps, n);
}

/// Stabilized softmax of one contiguous row into a distinct destination
/// (src and dst must not alias). The row sums to 1 afterwards.
/// Composition of RowMax + ExpRowSum + DivRow — bit-identical to
/// Tensor::SoftmaxRows on the same row.
inline void SoftmaxRow(const Scalar* src, Scalar* dst, int n) {
  const Scalar m = RowMax(src, n);
  const Scalar z = ExpRowSum(src, m, dst, n);
  DivRow(dst, z, n);
}

}  // namespace tgsim::nn::kernels

#endif  // TGSIM_NN_KERNELS_H_
