#include "nn/simd.h"

#include "nn/kernels.h"

namespace tgsim::nn::kernels {

namespace {

const KernelOps kScalarOps = {
    scalar::RowMax,
    scalar::ExpRowSum,
    scalar::ExpRow,
    scalar::DivRow,
    scalar::Dot,
    scalar::DotSum2,
    scalar::DotPanel4,
    scalar::AxpyRow,
    scalar::Axpy4Row,
    scalar::AddRow,
    scalar::ScaleRow,
    scalar::MulRow,
    scalar::MulAddRow,
    scalar::ScaleAddRow,
    scalar::ShiftRow,
    scalar::SigmoidRow,
    scalar::SigmoidBwdRow,
    scalar::ReluRow,
    scalar::ReluBwdRow,
    scalar::LeakyReluRow,
    scalar::LeakyReluBwdRow,
    scalar::SoftmaxBwdRow,
    scalar::LogSoftmaxBwdRow,
    scalar::AxpyDivRow,
    scalar::AdamRow,
};

Backend g_active_backend = Backend::kScalar;

}  // namespace

namespace detail {

std::atomic<const KernelOps*> g_ops{nullptr};

const KernelOps* ResolveOps() {
  const KernelOps* ops = &kScalarOps;
  Backend backend = Backend::kScalar;
#if defined(TGSIM_HAVE_AVX2_KERNELS)
  if (__builtin_cpu_supports("avx2")) {
    ops = GetAvx2Ops();
    backend = Backend::kAvx2;
  }
#endif
  // Benign race: concurrent first calls resolve to the same table.
  g_active_backend = backend;
  g_ops.store(ops, std::memory_order_release);
  return ops;
}

}  // namespace detail

const KernelOps* GetScalarOps() { return &kScalarOps; }

const KernelOps* OpsFor(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return &kScalarOps;
    case Backend::kAvx2:
#if defined(TGSIM_HAVE_AVX2_KERNELS)
      return GetAvx2Ops();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

Backend ActiveBackend() {
  Ops();  // resolve if needed
  return g_active_backend;
}

bool BackendCompiledIn(Backend b) { return OpsFor(b) != nullptr; }

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Backend SetBackendForTest(Backend b) {
  const Backend prev = ActiveBackend();
  const KernelOps* ops = OpsFor(b);
  TGSIM_DCHECK(ops != nullptr);
  g_active_backend = b;
  detail::g_ops.store(ops, std::memory_order_release);
  return prev;
}

}  // namespace tgsim::nn::kernels
