#ifndef TGSIM_NN_SIMD_H_
#define TGSIM_NN_SIMD_H_

#include <atomic>
#include <cstdint>

#include "nn/tensor.h"

namespace tgsim::nn::kernels {

/// Runtime-dispatched kernel backends. The scalar table is the reference
/// semantics; every other table must be bit-identical to it on every input
/// the callers can produce (see kernels.h for the contract). Selection
/// happens once, lazily, on first kernel call:
///
///   1. x86-64 with AVX2 reported by the CPU and the AVX2 TU compiled in
///      (every x86-64 GCC/Clang build except -DTGSIM_FORCE_SCALAR=ON)
///      -> kAvx2.
///   2. Otherwise -> kScalar.
enum class Backend { kScalar = 0, kAvx2 = 1 };

struct KernelOps {
  Scalar (*row_max)(const Scalar* x, int n);
  Scalar (*exp_row_sum)(const Scalar* x, Scalar m, Scalar* dst, int n);
  void (*exp_row)(const Scalar* x, Scalar m, Scalar* dst, int n);
  void (*div_row)(Scalar* x, Scalar z, int n);
  void (*axpy_row)(Scalar a, const Scalar* b, Scalar* o, int n);
  void (*matmul_panel)(const Scalar* a, int64_t lda, const Scalar* b,
                       int64_t ldb, Scalar* c, int64_t ldc, int rows, int k,
                       int n);
  void (*add_row)(Scalar* dst, const Scalar* x, int n);
  void (*scale_row)(Scalar* x, Scalar s, int n);
  void (*mul_row)(Scalar* dst, const Scalar* x, int n);
  void (*mul_add_row)(Scalar* dst, const Scalar* a, const Scalar* b, int n);
  void (*shift_row)(const Scalar* x, Scalar s, Scalar* dst, int n);
  void (*sigmoid_row)(const Scalar* x, Scalar* dst, int n);
  void (*sigmoid_bwd_row)(const Scalar* go, const Scalar* y, Scalar* gi,
                          int n);
  void (*relu_row)(const Scalar* x, Scalar* dst, int n);
  void (*relu_bwd_row)(const Scalar* go, const Scalar* x, Scalar* gi, int n);
  void (*leaky_relu_row)(const Scalar* x, Scalar slope, Scalar* dst, int n);
  void (*leaky_relu_bwd_row)(const Scalar* go, const Scalar* x, Scalar slope,
                             Scalar* gi, int n);
  void (*softmax_bwd_row)(const Scalar* go, const Scalar* y, Scalar dot,
                          Scalar* gi, int n);
  void (*logsoftmax_bwd_row)(const Scalar* go, const Scalar* p, Scalar gsum,
                             Scalar* gi, int n);
  void (*adam_row)(Scalar* x, Scalar* m, Scalar* v, const Scalar* g,
                   Scalar beta1, Scalar one_minus_beta1, Scalar beta2,
                   Scalar one_minus_beta2, Scalar bias1, Scalar bias2,
                   Scalar lr, Scalar eps, int n);
};

namespace detail {
// Set once by ResolveOps (or SetBackendForTest); acquire/release so a
// reader never sees a half-initialized table pointer.
extern std::atomic<const KernelOps*> g_ops;
const KernelOps* ResolveOps();
}  // namespace detail

/// The active dispatch table. First call resolves the backend (CPUID);
/// later calls are a single atomic load.
inline const KernelOps& Ops() {
  const KernelOps* ops = detail::g_ops.load(std::memory_order_acquire);
  if (ops == nullptr) ops = detail::ResolveOps();
  return *ops;
}

/// Table for an explicit backend; nullptr if that backend was not compiled
/// into this binary (kScalar is always available).
const KernelOps* OpsFor(Backend b);

/// Backend the next Ops() call will use (resolving it if needed).
Backend ActiveBackend();

/// True if the given backend's TU is compiled into this binary.
bool BackendCompiledIn(Backend b);

/// "scalar" / "avx2".
const char* BackendName(Backend b);

/// Test hook: pin the dispatch table to a backend (must be compiled in).
/// Returns the previously active backend so tests can restore it. Not
/// thread-safe against concurrent kernel calls — call only from
/// single-threaded test setup.
Backend SetBackendForTest(Backend b);

const KernelOps* GetScalarOps();
#if defined(TGSIM_HAVE_AVX2_KERNELS)
const KernelOps* GetAvx2Ops();
#endif

}  // namespace tgsim::nn::kernels

#endif  // TGSIM_NN_SIMD_H_
