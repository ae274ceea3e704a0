#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/memory_tracker.h"
#include "nn/kernels.h"
#include "parallel/parallel_for.h"

namespace tgsim::nn {

namespace {

using parallel::kElementwiseGrain;
using parallel::RowGrain;

/// Rows per MatMul task at least: one task stays around L2 while leaving
/// enough tasks to fill the pool on paper-sized (512-1024) operands.
constexpr int64_t kMatMulRowPanel = 32;

/// Multiply-adds per MatMul task at least, so a product with fewer in
/// total runs inline as one panel. Below this, handing panels to the pool
/// costs more CPU than it saves wall time: the TGAT products of a TGAE
/// generate (about 214 x 32 times 32 x 32) are that small.
constexpr int64_t kMinPanelWork = int64_t{1} << 18;

}  // namespace

void Tensor::Allocate(int rows, int cols) {
  TGSIM_CHECK_GE(rows, 0);
  TGSIM_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  size_t n = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  if (n > 0) {
    data_ = new Scalar[n];
    MemoryTracker::Global().Allocate(n * sizeof(Scalar));
  } else {
    data_ = nullptr;
  }
}

void Tensor::Deallocate() {
  if (data_ != nullptr) {
    MemoryTracker::Global().Release(static_cast<size_t>(size()) *
                                    sizeof(Scalar));
    delete[] data_;
    data_ = nullptr;
  }
  rows_ = 0;
  cols_ = 0;
}

Tensor::Tensor(int rows, int cols) {
  Allocate(rows, cols);
  if (data_ != nullptr) std::memset(data_, 0, size() * sizeof(Scalar));
}

Tensor::Tensor(int rows, int cols, Scalar fill) {
  Allocate(rows, cols);
  std::fill(data_, data_ + size(), fill);
}

Tensor::Tensor(int rows, int cols, std::vector<Scalar> data) {
  TGSIM_CHECK_EQ(static_cast<int64_t>(data.size()),
                 static_cast<int64_t>(rows) * cols);
  Allocate(rows, cols);
  std::copy(data.begin(), data.end(), data_);
}

Tensor::Tensor(const Tensor& other) {
  Allocate(other.rows_, other.cols_);
  if (data_ != nullptr)
    std::memcpy(data_, other.data_, size() * sizeof(Scalar));
}

Tensor::Tensor(Tensor&& other) noexcept
    : data_(other.data_), rows_(other.rows_), cols_(other.cols_) {
  other.data_ = nullptr;
  other.rows_ = 0;
  other.cols_ = 0;
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (!SameShape(other)) {
    Deallocate();
    Allocate(other.rows_, other.cols_);
  }
  if (data_ != nullptr)
    std::memcpy(data_, other.data_, size() * sizeof(Scalar));
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  Deallocate();
  data_ = other.data_;
  rows_ = other.rows_;
  cols_ = other.cols_;
  other.data_ = nullptr;
  other.rows_ = 0;
  other.cols_ = 0;
  return *this;
}

Tensor::~Tensor() { Deallocate(); }

Tensor Tensor::Identity(int n) {
  Tensor t(n, n);
  for (int i = 0; i < n; ++i) t.at(i, i) = 1.0;
  return t;
}

Tensor Tensor::Randn(Rng& rng, int rows, int cols, Scalar stddev) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) t.data_[i] = rng.Normal() * stddev;
  return t;
}

Tensor Tensor::RandUniform(Rng& rng, int rows, int cols, Scalar lo,
                           Scalar hi) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) t.data_[i] = rng.Uniform(lo, hi);
  return t;
}

Tensor Tensor::GlorotUniform(Rng& rng, int fan_in, int fan_out) {
  Scalar limit = std::sqrt(6.0 / (fan_in + fan_out));
  return RandUniform(rng, fan_in, fan_out, -limit, limit);
}

void Tensor::Fill(Scalar v) { std::fill(data_, data_ + size(), v); }

void Tensor::AddInPlace(const Tensor& other) {
  TGSIM_CHECK(SameShape(other));
  parallel::ParallelFor(0, size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          kernels::AddRow(data_ + b, other.data_ + b,
                                          static_cast<int>(e - b));
                        });
}

void Tensor::Axpy(Scalar alpha, const Tensor& other) {
  TGSIM_CHECK(SameShape(other));
  parallel::ParallelFor(0, size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          kernels::AxpyRow(alpha, other.data_ + b, data_ + b,
                                           static_cast<int>(e - b));
                        });
}

void Tensor::ScaleInPlace(Scalar alpha) {
  parallel::ParallelFor(0, size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          kernels::ScaleRow(data_ + b, alpha,
                                            static_cast<int>(e - b));
                        });
}

void Tensor::AddRowVectorInPlace(const Tensor& vec) {
  TGSIM_CHECK_EQ(vec.rows(), 1);
  TGSIM_CHECK_EQ(vec.cols(), cols_);
  const int64_t row_grain = RowGrain(cols_);
  parallel::ParallelFor(0, rows_, row_grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r)
      kernels::AddRow(row(static_cast<int>(r)), vec.data_, cols_);
  });
}

Tensor Tensor::operator+(const Tensor& other) const {
  Tensor out(*this);
  out.AddInPlace(other);
  return out;
}

Tensor Tensor::operator-(const Tensor& other) const {
  TGSIM_CHECK(SameShape(other));
  Tensor out(*this);
  parallel::ParallelFor(0, size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i)
                            out.data_[i] -= other.data_[i];
                        });
  return out;
}

Tensor Tensor::CwiseMul(const Tensor& other) const {
  TGSIM_CHECK(SameShape(other));
  Tensor out(*this);
  parallel::ParallelFor(0, size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          kernels::MulRow(out.data_ + b, other.data_ + b,
                                          static_cast<int>(e - b));
                        });
  return out;
}

Tensor Tensor::operator*(Scalar s) const {
  Tensor out(*this);
  out.ScaleInPlace(s);
  return out;
}

Tensor Tensor::MatMul(const Tensor& other) const {
  TGSIM_CHECK_EQ(cols_, other.rows_);
  // Not zero-filled: the panels below write every element.
  Tensor out;
  out.Allocate(rows_, other.cols_);
  const int n = other.cols_;
  // Row panels of at least kMatMulRowPanel rows and kMinPanelWork
  // multiply-adds, each computed by the register-tiled panel kernel. Each
  // output row is owned by exactly one panel, the panel size depends only
  // on the shapes, and every output element is one ascending-k chain from
  // +0.0 — so the result is bit-identical for any thread count, on any
  // backend, and to the unblocked serial loop.
  const int64_t row_work = std::max<int64_t>(1, int64_t{cols_} * n);
  const int64_t panel = std::max(kMatMulRowPanel, kMinPanelWork / row_work);
  parallel::ParallelFor(0, rows_, panel, [&](int64_t i0, int64_t i1) {
    const int r0 = static_cast<int>(i0);
    kernels::MatMulPanel(row(r0), cols_, other.data_, n, out.row(r0), n,
                         static_cast<int>(i1 - i0), cols_, n);
  });
  return out;
}

Tensor Tensor::Transpose() const {
  Tensor out(cols_, rows_);
  // Chunk over output rows (= input columns): each chunk owns a disjoint
  // band of the output.
  const int64_t row_grain = RowGrain(rows_);
  parallel::ParallelFor(0, cols_, row_grain, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c)
      for (int r = 0; r < rows_; ++r)
        out.at(static_cast<int>(c), r) = at(r, static_cast<int>(c));
  });
  return out;
}

Tensor Tensor::GatherRows(const std::vector<int>& map) const {
  // Not zero-filled: every row is copied over.
  Tensor out;
  out.Allocate(static_cast<int>(map.size()), cols_);
  const int64_t row_grain = RowGrain(cols_);
  parallel::ParallelFor(
      0, static_cast<int64_t>(map.size()), row_grain,
      [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          TGSIM_DCHECK(map[static_cast<size_t>(i)] >= 0 &&
                       map[static_cast<size_t>(i)] < rows_);
          std::memcpy(out.row(static_cast<int>(i)),
                      row(map[static_cast<size_t>(i)]),
                      static_cast<size_t>(cols_) * sizeof(Scalar));
        }
      });
  return out;
}

// Scalar reductions (Sum/Dot/MaxAbs) stay serial: chunked accumulation
// would change the floating-point association relative to the established
// serial semantics, and at O(n) memory-bound cost there is little to win.
Scalar Tensor::Sum() const {
  Scalar s = 0.0;
  for (int64_t i = 0; i < size(); ++i) s += data_[i];
  return s;
}

Scalar Tensor::Mean() const {
  TGSIM_CHECK_GT(size(), 0);
  return Sum() / static_cast<Scalar>(size());
}

Scalar Tensor::MaxAbs() const {
  Scalar m = 0.0;
  for (int64_t i = 0; i < size(); ++i)
    m = std::max(m, std::fabs(data_[i]));
  return m;
}

Scalar Tensor::Norm() const { return std::sqrt(Dot(*this)); }

Scalar Tensor::Dot(const Tensor& other) const {
  TGSIM_CHECK(SameShape(other));
  Scalar s = 0.0;
  for (int64_t i = 0; i < size(); ++i) s += data_[i] * other.data_[i];
  return s;
}

Tensor Tensor::SoftmaxRows() const {
  Tensor out(rows_, cols_);
  const int64_t row_grain = RowGrain(cols_);
  parallel::ParallelFor(0, rows_, row_grain, [&](int64_t r0, int64_t r1) {
    for (int64_t ri = r0; ri < r1; ++ri) {
      const int r = static_cast<int>(ri);
      kernels::SoftmaxRow(row(r), out.row(r), cols_);
    }
  });
  return out;
}

std::string Tensor::ToString(int max_rows) const {
  std::ostringstream os;
  os << "Tensor(" << rows_ << "x" << cols_ << ")";
  int shown = std::min(rows_, max_rows);
  for (int r = 0; r < shown; ++r) {
    os << "\n  [";
    for (int c = 0; c < cols_; ++c) {
      if (c > 0) os << ", ";
      os << at(r, c);
    }
    os << "]";
  }
  if (shown < rows_) os << "\n  ... (" << rows_ - shown << " more rows)";
  return os.str();
}

}  // namespace tgsim::nn
