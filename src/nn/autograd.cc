#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "nn/kernels.h"
#include "parallel/parallel_for.h"

namespace tgsim::nn {

namespace {

using parallel::kElementwiseGrain;
using parallel::RowGrain;

/// Segment-id -> ascending member indices, in CSR form. Per-segment entry
/// order equals the global entry order, so any per-segment accumulation
/// done over `Members(s)` reproduces the serial loop bit for bit.
class SegmentIndex {
 public:
  SegmentIndex(const std::vector<int>& seg, int num_segments)
      : offsets_(static_cast<size_t>(num_segments) + 1, 0),
        items_(seg.size()) {
    for (int s : seg) {
      TGSIM_DCHECK(s >= 0 && s < num_segments);
      ++offsets_[static_cast<size_t>(s) + 1];
    }
    for (size_t s = 1; s < offsets_.size(); ++s)
      offsets_[s] += offsets_[s - 1];
    std::vector<int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (size_t i = 0; i < seg.size(); ++i)
      items_[static_cast<size_t>(
          cursor[static_cast<size_t>(seg[i])]++)] = static_cast<int>(i);
  }

  int num_segments() const { return static_cast<int>(offsets_.size()) - 1; }
  const int* begin(int s) const {
    return items_.data() + offsets_[static_cast<size_t>(s)];
  }
  const int* end(int s) const {
    return items_.data() + offsets_[static_cast<size_t>(s) + 1];
  }

 private:
  std::vector<int64_t> offsets_;
  std::vector<int> items_;
};

/// Grain for loops over segments; segments are cheap individually, so pack
/// many per chunk.
constexpr int64_t kSegmentGrain = 256;

}  // namespace

Var::Var(Tensor value, bool requires_grad) {
  node_ = std::make_shared<Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Var Var::FromNode(std::shared_ptr<Node> node) {
  Var v;
  v.node_ = std::move(node);
  return v;
}

Scalar Var::item() const {
  TGSIM_CHECK_EQ(node_->value.rows(), 1);
  TGSIM_CHECK_EQ(node_->value.cols(), 1);
  return node_->value.at(0, 0);
}

namespace {

/// Builds an op node: value, parent edges and the backward closure.
Var MakeOp(Tensor value, std::vector<Var> parents,
           std::function<void(Node&)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->parents.reserve(parents.size());
  bool needs_grad = false;
  for (const Var& p : parents) {
    TGSIM_CHECK(p.defined());
    node->parents.push_back(p.node());
    needs_grad = needs_grad || p.node()->requires_grad;
  }
  node->requires_grad = needs_grad;
  if (needs_grad) node->backward_fn = std::move(backward);
  return Var::FromNode(node);
}

/// True if `p` participates in differentiation (grad must be accumulated).
bool NeedsGrad(const std::shared_ptr<Node>& p) { return p->requires_grad; }

}  // namespace

void Backward(const Var& root) {
  TGSIM_CHECK(root.defined());
  TGSIM_CHECK_EQ(root.value().rows(), 1);
  TGSIM_CHECK_EQ(root.value().cols(), 1);

  // Iterative post-order DFS to get a topological order of the DAG.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(root.node().get(), 0);
  visited.insert(root.node().get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child++].get();
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  root.node()->EnsureGrad();
  root.node()->grad.at(0, 0) += 1.0;

  // `order` is post-order (leaves first); walk it backwards.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn) {
      node->EnsureGrad();
      node->backward_fn(*node);
    }
  }
}

// ---------------------------------------------------------------------------
// Binary / unary arithmetic.
// ---------------------------------------------------------------------------

Var MatMul(const Var& a, const Var& b) {
  Tensor out = a.value().MatMul(b.value());
  return MakeOp(std::move(out), {a, b}, [](Node& self) {
    auto& pa = self.parents[0];
    auto& pb = self.parents[1];
    if (NeedsGrad(pa)) {
      pa->EnsureGrad();
      pa->grad.AddInPlace(self.grad.MatMul(pb->value.Transpose()));
    }
    if (NeedsGrad(pb)) {
      pb->EnsureGrad();
      pb->grad.AddInPlace(pa->value.Transpose().MatMul(self.grad));
    }
  });
}

Var Affine(const Var& a, const Var& w, const Var& b) {
  TGSIM_CHECK_EQ(b.rows(), 1);
  TGSIM_CHECK_EQ(b.cols(), w.cols());
  Tensor out = a.value().MatMul(w.value());
  out.AddRowVectorInPlace(b.value());
  return MakeOp(std::move(out), {a, w, b}, [](Node& self) {
    auto& pa = self.parents[0];
    auto& pw = self.parents[1];
    auto& pb = self.parents[2];
    const int cols = self.grad.cols();
    if (NeedsGrad(pb)) {
      pb->EnsureGrad();
      for (int r = 0; r < self.grad.rows(); ++r)
        kernels::AddRow(pb->grad.row(0), self.grad.row(r), cols);
    }
    // The composition hands the MatMul node a `0.0 + g` copy of this
    // gradient, which differs from g only in the sign of zero entries.
    // Every MatMul output chain starts at +0.0 and so never holds -0.0;
    // adding a zero of either sign to it leaves the same bits.
    if (NeedsGrad(pa)) {
      pa->EnsureGrad();
      pa->grad.AddInPlace(self.grad.MatMul(pw->value.Transpose()));
    }
    if (NeedsGrad(pw)) {
      pw->EnsureGrad();
      pw->grad.AddInPlace(pa->value.Transpose().MatMul(self.grad));
    }
  });
}

Var Add(const Var& a, const Var& b) {
  const bool broadcast = b.rows() == 1 && a.rows() != 1 &&
                         b.cols() == a.cols();
  Tensor out = a.value();
  if (broadcast) {
    out.AddRowVectorInPlace(b.value());
  } else {
    out.AddInPlace(b.value());
  }
  return MakeOp(std::move(out), {a, b}, [broadcast](Node& self) {
    auto& pa = self.parents[0];
    auto& pb = self.parents[1];
    if (NeedsGrad(pa)) {
      pa->EnsureGrad();
      pa->grad.AddInPlace(self.grad);
    }
    if (NeedsGrad(pb)) {
      pb->EnsureGrad();
      if (broadcast) {
        for (int r = 0; r < self.grad.rows(); ++r)
          for (int c = 0; c < self.grad.cols(); ++c)
            pb->grad.at(0, c) += self.grad.at(r, c);
      } else {
        pb->grad.AddInPlace(self.grad);
      }
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  Tensor out = a.value() - b.value();
  return MakeOp(std::move(out), {a, b}, [](Node& self) {
    auto& pa = self.parents[0];
    auto& pb = self.parents[1];
    if (NeedsGrad(pa)) {
      pa->EnsureGrad();
      pa->grad.AddInPlace(self.grad);
    }
    if (NeedsGrad(pb)) {
      pb->EnsureGrad();
      pb->grad.Axpy(-1.0, self.grad);
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  Tensor out = a.value().CwiseMul(b.value());
  return MakeOp(std::move(out), {a, b}, [](Node& self) {
    auto& pa = self.parents[0];
    auto& pb = self.parents[1];
    if (NeedsGrad(pa)) {
      pa->EnsureGrad();
      pa->grad.AddInPlace(self.grad.CwiseMul(pb->value));
    }
    if (NeedsGrad(pb)) {
      pb->EnsureGrad();
      pb->grad.AddInPlace(self.grad.CwiseMul(pa->value));
    }
  });
}

Var MulColBroadcast(const Var& a, const Var& w) {
  TGSIM_CHECK_EQ(w.cols(), 1);
  TGSIM_CHECK_EQ(w.rows(), a.rows());
  Tensor out = a.value();
  parallel::ParallelFor(
      0, out.rows(), RowGrain(out.cols()), [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r)
          kernels::ScaleRow(out.row(static_cast<int>(r)),
                            w.value().at(static_cast<int>(r), 0), out.cols());
      });
  return MakeOp(std::move(out), {a, w}, [](Node& self) {
    auto& pa = self.parents[0];
    auto& pw = self.parents[1];
    const int cols = self.grad.cols();
    const int64_t grain = RowGrain(cols);
    if (NeedsGrad(pa)) {
      pa->EnsureGrad();
      parallel::ParallelFor(
          0, self.grad.rows(), grain, [&](int64_t r0, int64_t r1) {
            for (int64_t ri = r0; ri < r1; ++ri) {
              const int r = static_cast<int>(ri);
              kernels::AxpyRow(pw->value.at(r, 0), self.grad.row(r),
                               pa->grad.row(r), cols);
            }
          });
    }
    if (NeedsGrad(pw)) {
      pw->EnsureGrad();
      parallel::ParallelFor(
          0, self.grad.rows(), grain, [&](int64_t r0, int64_t r1) {
            for (int64_t ri = r0; ri < r1; ++ri) {
              const int r = static_cast<int>(ri);
              pw->grad.at(r, 0) +=
                  kernels::Dot(self.grad.row(r), pa->value.row(r), cols);
            }
          });
    }
  });
}

Var Scale(const Var& a, Scalar s) {
  Tensor out = a.value() * s;
  return MakeOp(std::move(out), {a}, [s](Node& self) {
    auto& pa = self.parents[0];
    if (NeedsGrad(pa)) {
      pa->EnsureGrad();
      pa->grad.Axpy(s, self.grad);
    }
  });
}

Var AddScalar(const Var& a, Scalar s) {
  Tensor out = a.value();
  for (int64_t i = 0; i < out.size(); ++i) out.data()[i] += s;
  return MakeOp(std::move(out), {a}, [](Node& self) {
    auto& pa = self.parents[0];
    if (NeedsGrad(pa)) {
      pa->EnsureGrad();
      pa->grad.AddInPlace(self.grad);
    }
  });
}

// ---------------------------------------------------------------------------
// Activations.
// ---------------------------------------------------------------------------

namespace {

/// Shared plumbing for activations backed by dispatched row kernels: fwd
/// fills out from x chunk by chunk; bwd accumulates into the parent grad
/// from (go, x, y) on the matching chunk. Both run on the flat
/// kElementwiseGrain chunking, so results are thread-count-invariant like
/// everything else on the tape.
template <typename FwdFn, typename BwdFn>
Var RowKernelOp(const Var& a, FwdFn fwd, BwdFn bwd) {
  const Tensor& x = a.value();
  Tensor out(x.rows(), x.cols());
  parallel::ParallelFor(0, x.size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          fwd(x.data() + b, out.data() + b,
                              static_cast<int>(e - b));
                        });
  return MakeOp(std::move(out), {a}, [bwd](Node& self) {
    auto& pa = self.parents[0];
    if (!NeedsGrad(pa)) return;
    pa->EnsureGrad();
    parallel::ParallelFor(
        0, self.grad.size(), kElementwiseGrain, [&](int64_t b, int64_t e) {
          bwd(self.grad.data() + b, pa->value.data() + b,
              self.value.data() + b, pa->grad.data() + b,
              static_cast<int>(e - b));
        });
  });
}

/// Shared plumbing for elementwise y=f(x) with dy/dx expressible from y / x.
/// Kept for the activations whose f is a libm call the SIMD backends do not
/// mirror (tanh, log) or that are cold (square); the hot activations go
/// through RowKernelOp above.
Var ElementwiseOp(const Var& a, const std::function<Scalar(Scalar)>& fwd,
                  std::function<Scalar(Scalar x, Scalar y)> dydx) {
  Tensor out = a.value();
  parallel::ParallelFor(0, out.size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i)
                            out.data()[i] = fwd(out.data()[i]);
                        });
  return MakeOp(std::move(out), {a},
                [dydx = std::move(dydx)](Node& self) {
                  auto& pa = self.parents[0];
                  if (!NeedsGrad(pa)) return;
                  pa->EnsureGrad();
                  parallel::ParallelFor(
                      0, self.grad.size(), kElementwiseGrain,
                      [&](int64_t b, int64_t e) {
                        for (int64_t i = b; i < e; ++i) {
                          pa->grad.data()[i] +=
                              self.grad.data()[i] *
                              dydx(pa->value.data()[i], self.value.data()[i]);
                        }
                      });
                });
}

}  // namespace

Var Sigmoid(const Var& a) {
  return RowKernelOp(
      a,
      [](const Scalar* x, Scalar* dst, int n) {
        kernels::SigmoidRow(x, dst, n);
      },
      [](const Scalar* go, const Scalar*, const Scalar* y, Scalar* gi,
         int n) { kernels::SigmoidBwdRow(go, y, gi, n); });
}

Var Tanh(const Var& a) {
  return ElementwiseOp(a, [](Scalar x) { return std::tanh(x); },
                       [](Scalar, Scalar y) { return 1.0 - y * y; });
}

Var Relu(const Var& a) {
  return RowKernelOp(
      a,
      [](const Scalar* x, Scalar* dst, int n) { kernels::ReluRow(x, dst, n); },
      [](const Scalar* go, const Scalar* x, const Scalar*, Scalar* gi,
         int n) { kernels::ReluBwdRow(go, x, gi, n); });
}

Var LeakyRelu(const Var& a, Scalar slope) {
  return RowKernelOp(
      a,
      [slope](const Scalar* x, Scalar* dst, int n) {
        kernels::LeakyReluRow(x, slope, dst, n);
      },
      [slope](const Scalar* go, const Scalar* x, const Scalar*, Scalar* gi,
              int n) { kernels::LeakyReluBwdRow(go, x, slope, gi, n); });
}

Var Exp(const Var& a) {
  return RowKernelOp(
      a,
      [](const Scalar* x, Scalar* dst, int n) {
        kernels::ExpRow(x, 0.0, dst, n);  // x - 0.0 is an exact identity
      },
      [](const Scalar* go, const Scalar*, const Scalar* y, Scalar* gi,
         int n) { kernels::MulAddRow(gi, go, y, n); });
}

Var Log(const Var& a, Scalar eps) {
  return ElementwiseOp(
      a, [eps](Scalar x) { return std::log(std::max(x, eps)); },
      [eps](Scalar x, Scalar) { return 1.0 / std::max(x, eps); });
}

Var Square(const Var& a) {
  return ElementwiseOp(a, [](Scalar x) { return x * x; },
                       [](Scalar x, Scalar) { return 2.0 * x; });
}

// ---------------------------------------------------------------------------
// Softmax family.
// ---------------------------------------------------------------------------

Var SoftmaxRows(const Var& a) {
  Tensor out = a.value().SoftmaxRows();
  return MakeOp(std::move(out), {a}, [](Node& self) {
    auto& pa = self.parents[0];
    if (!NeedsGrad(pa)) return;
    pa->EnsureGrad();
    // dL/dx = y * (g - <g, y>) per row; the dot keeps its serial chain.
    const int cols = self.value.cols();
    parallel::ParallelFor(
        0, self.value.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
          for (int64_t ri = r0; ri < r1; ++ri) {
            const int r = static_cast<int>(ri);
            const Scalar dot =
                kernels::Dot(self.grad.row(r), self.value.row(r), cols);
            kernels::SoftmaxBwdRow(self.grad.row(r), self.value.row(r), dot,
                                   pa->grad.row(r), cols);
          }
        });
  });
}

Var LogSoftmaxRows(const Var& a) {
  const Tensor& x = a.value();
  Tensor out(x.rows(), x.cols());
  const int cols = x.cols();
  parallel::ParallelFor(
      0, x.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
        std::vector<Scalar> scratch(static_cast<size_t>(cols));
        for (int64_t ri = r0; ri < r1; ++ri) {
          const int r = static_cast<int>(ri);
          const Scalar m = kernels::RowMax(x.row(r), cols);
          const Scalar z = kernels::ExpRowSum(x.row(r), m, scratch.data(),
                                              cols);
          const Scalar log_z = m + std::log(z);
          kernels::ShiftRow(x.row(r), log_z, out.row(r), cols);
        }
      });
  return MakeOp(std::move(out), {a}, [](Node& self) {
    auto& pa = self.parents[0];
    if (!NeedsGrad(pa)) return;
    pa->EnsureGrad();
    // dL/dx = g - softmax(x) * sum(g) per row. The gsum chain stays a
    // plain ascending loop; softmax(x) = exp(value) is per-element.
    const int cols = self.value.cols();
    parallel::ParallelFor(
        0, self.value.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
          std::vector<Scalar> p(static_cast<size_t>(cols));
          for (int64_t ri = r0; ri < r1; ++ri) {
            const int r = static_cast<int>(ri);
            const Scalar* go = self.grad.row(r);
            Scalar gsum = 0.0;
            for (int c = 0; c < cols; ++c) gsum += go[c];
            kernels::ExpRow(self.value.row(r), 0.0, p.data(), cols);
            kernels::LogSoftmaxBwdRow(go, p.data(), gsum, pa->grad.row(r),
                                      cols);
          }
        });
  });
}

// ---------------------------------------------------------------------------
// Reductions / reshapes.
// ---------------------------------------------------------------------------

Var Sum(const Var& a) {
  Tensor out(1, 1);
  out.at(0, 0) = a.value().Sum();
  return MakeOp(std::move(out), {a}, [](Node& self) {
    auto& pa = self.parents[0];
    if (!NeedsGrad(pa)) return;
    pa->EnsureGrad();
    Scalar g = self.grad.at(0, 0);
    for (int64_t i = 0; i < pa->grad.size(); ++i) pa->grad.data()[i] += g;
  });
}

Var Mean(const Var& a) {
  int64_t n = a.value().size();
  TGSIM_CHECK_GT(n, 0);
  return Scale(Sum(a), 1.0 / static_cast<Scalar>(n));
}

Var ConcatCols(const std::vector<Var>& vs) {
  TGSIM_CHECK(!vs.empty());
  int rows = vs[0].rows();
  int cols = 0;
  for (const Var& v : vs) {
    TGSIM_CHECK_EQ(v.rows(), rows);
    cols += v.cols();
  }
  Tensor out(rows, cols);
  int offset = 0;
  for (const Var& v : vs) {
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < v.cols(); ++c)
        out.at(r, offset + c) = v.value().at(r, c);
    offset += v.cols();
  }
  return MakeOp(std::move(out), vs, [](Node& self) {
    int offset = 0;
    for (auto& p : self.parents) {
      int pc = p->value.cols();
      if (NeedsGrad(p)) {
        p->EnsureGrad();
        for (int r = 0; r < p->value.rows(); ++r)
          for (int c = 0; c < pc; ++c)
            p->grad.at(r, c) += self.grad.at(r, offset + c);
      }
      offset += pc;
    }
  });
}

Var ConcatRows(const std::vector<Var>& vs) {
  TGSIM_CHECK(!vs.empty());
  int cols = vs[0].cols();
  int rows = 0;
  for (const Var& v : vs) {
    TGSIM_CHECK_EQ(v.cols(), cols);
    rows += v.rows();
  }
  Tensor out(rows, cols);
  int offset = 0;
  for (const Var& v : vs) {
    for (int r = 0; r < v.rows(); ++r)
      for (int c = 0; c < cols; ++c)
        out.at(offset + r, c) = v.value().at(r, c);
    offset += v.rows();
  }
  return MakeOp(std::move(out), vs, [](Node& self) {
    int offset = 0;
    for (auto& p : self.parents) {
      int pr = p->value.rows();
      if (NeedsGrad(p)) {
        p->EnsureGrad();
        for (int r = 0; r < pr; ++r)
          for (int c = 0; c < p->value.cols(); ++c)
            p->grad.at(r, c) += self.grad.at(offset + r, c);
      }
      offset += pr;
    }
  });
}

Var SliceCols(const Var& a, int begin, int end) {
  TGSIM_CHECK(0 <= begin && begin <= end && end <= a.cols());
  const int rows = a.rows();
  const int width = end - begin;
  Tensor out(rows, width);
  parallel::ParallelFor(
      0, rows, RowGrain(width), [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r)
          for (int c = 0; c < width; ++c)
            out.at(static_cast<int>(r), c) =
                a.value().at(static_cast<int>(r), begin + c);
      });
  return MakeOp(std::move(out), {a}, [begin, width](Node& self) {
    auto& pa = self.parents[0];
    if (!NeedsGrad(pa)) return;
    pa->EnsureGrad();
    parallel::ParallelFor(
        0, self.grad.rows(), RowGrain(width), [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r)
            for (int c = 0; c < width; ++c)
              pa->grad.at(static_cast<int>(r), begin + c) +=
                  self.grad.at(static_cast<int>(r), c);
        });
  });
}

Var GatherRows(const Var& a, std::vector<int> idx) {
  Tensor out = a.value().GatherRows(idx);
  return MakeOp(std::move(out), {a}, [idx = std::move(idx)](Node& self) {
    auto& pa = self.parents[0];
    if (!NeedsGrad(pa)) return;
    pa->EnsureGrad();
    for (size_t i = 0; i < idx.size(); ++i)
      for (int c = 0; c < self.grad.cols(); ++c)
        pa->grad.at(idx[i], c) += self.grad.at(static_cast<int>(i), c);
  });
}

Var GatherCols(const Var& a, std::vector<int> idx) {
  const int rows = a.rows();
  const int width = static_cast<int>(idx.size());
  for (int j : idx) TGSIM_CHECK(j >= 0 && j < a.cols());
  Tensor out(rows, width);
  parallel::ParallelFor(
      0, rows, RowGrain(width), [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r)
          for (int j = 0; j < width; ++j)
            out.at(static_cast<int>(r), j) =
                a.value().at(static_cast<int>(r),
                             idx[static_cast<size_t>(j)]);
      });
  return MakeOp(std::move(out), {a}, [idx = std::move(idx)](Node& self) {
    auto& pa = self.parents[0];
    if (!NeedsGrad(pa)) return;
    pa->EnsureGrad();
    // Rows are disjoint across chunks; duplicate column indices accumulate
    // serially within a row, so the scatter-add is thread-count invariant.
    parallel::ParallelFor(
        0, self.grad.rows(), RowGrain(self.grad.cols()),
        [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r)
            for (int j = 0; j < self.grad.cols(); ++j)
              pa->grad.at(static_cast<int>(r), idx[static_cast<size_t>(j)]) +=
                  self.grad.at(static_cast<int>(r), j);
        });
  });
}

Var SegmentSum(const Var& a, std::vector<int> seg, int num_segments) {
  TGSIM_CHECK_EQ(static_cast<int>(seg.size()), a.rows());
  // Each segment owns one output row; per-segment member order (ascending
  // entry index, via SegmentIndex) matches the serial accumulation order,
  // so the sums are bit-identical for any thread count.
  SegmentIndex index(seg, num_segments);
  Tensor out(num_segments, a.cols());
  parallel::ParallelFor(
      0, num_segments, kSegmentGrain, [&](int64_t s0, int64_t s1) {
        for (int64_t s = s0; s < s1; ++s) {
          Scalar* dst = out.row(static_cast<int>(s));
          for (const int* it = index.begin(static_cast<int>(s));
               it != index.end(static_cast<int>(s)); ++it)
            for (int c = 0; c < a.cols(); ++c)
              dst[c] += a.value().at(*it, c);
        }
      });
  return MakeOp(std::move(out), {a},
                [seg = std::move(seg)](Node& self) {
                  auto& pa = self.parents[0];
                  if (!NeedsGrad(pa)) return;
                  pa->EnsureGrad();
                  // Backward is a gather: entry i reads row seg[i] — rows
                  // of pa->grad are disjoint per entry chunk.
                  parallel::ParallelFor(
                      0, static_cast<int64_t>(seg.size()),
                      RowGrain(pa->grad.cols()), [&](int64_t b, int64_t e) {
                        for (int64_t i = b; i < e; ++i)
                          for (int c = 0; c < pa->grad.cols(); ++c)
                            pa->grad.at(static_cast<int>(i), c) +=
                                self.grad.at(seg[static_cast<size_t>(i)], c);
                      });
                });
}

Var SegmentSoftmax(const Var& scores, std::vector<int> seg,
                   int num_segments) {
  TGSIM_CHECK_EQ(scores.cols(), 1);
  TGSIM_CHECK_EQ(static_cast<int>(seg.size()), scores.rows());
  const Tensor& x = scores.value();
  const int n = x.rows();
  // Parallel over target segments: each segment stabilizes (max), sums and
  // normalizes its own entries, touching only its own output slots. Member
  // order inside a segment is ascending entry index, so the per-segment
  // max/sum order matches the serial sweep bit for bit.
  auto index = std::make_shared<SegmentIndex>(seg, num_segments);
  Tensor out(n, 1);
  parallel::ParallelFor(
      0, num_segments, kSegmentGrain, [&](int64_t s0, int64_t s1) {
        // Gather each segment's entries into a contiguous scratch row so
        // the shared SoftmaxRow kernel (and its SIMD variants) can run on
        // it, then scatter the probabilities back. Member order is
        // ascending entry index, same as the old in-place sweep.
        std::vector<Scalar> vals, probs;
        for (int64_t s = s0; s < s1; ++s) {
          const int si = static_cast<int>(s);
          const int* members = index->begin(si);
          const int count = static_cast<int>(index->end(si) - members);
          if (count == 0) continue;  // RowMax needs n >= 1
          vals.resize(static_cast<size_t>(count));
          probs.resize(static_cast<size_t>(count));
          for (int i = 0; i < count; ++i)
            vals[static_cast<size_t>(i)] = x.at(members[i], 0);
          kernels::SoftmaxRow(vals.data(), probs.data(), count);
          for (int i = 0; i < count; ++i)
            out.at(members[i], 0) = probs[static_cast<size_t>(i)];
        }
      });
  return MakeOp(
      std::move(out), {scores},
      [index = std::move(index)](Node& self) {
        auto& pa = self.parents[0];
        if (!NeedsGrad(pa)) return;
        pa->EnsureGrad();
        // Per segment: dx_i = y_i * (g_i - sum_j g_j y_j). Gather the
        // segment's go/y/gi into scratch rows, run the shared Dot +
        // SoftmaxBwdRow kernels, scatter the updated gi back.
        parallel::ParallelFor(
            0, index->num_segments(), kSegmentGrain,
            [&](int64_t s0, int64_t s1) {
              std::vector<Scalar> go_s, y_s, gi_s;
              for (int64_t s = s0; s < s1; ++s) {
                const int si = static_cast<int>(s);
                const int* members = index->begin(si);
                const int count =
                    static_cast<int>(index->end(si) - members);
                if (count == 0) continue;
                go_s.resize(static_cast<size_t>(count));
                y_s.resize(static_cast<size_t>(count));
                gi_s.resize(static_cast<size_t>(count));
                for (int i = 0; i < count; ++i) {
                  go_s[static_cast<size_t>(i)] = self.grad.at(members[i], 0);
                  y_s[static_cast<size_t>(i)] = self.value.at(members[i], 0);
                  gi_s[static_cast<size_t>(i)] = pa->grad.at(members[i], 0);
                }
                const Scalar dot =
                    kernels::Dot(go_s.data(), y_s.data(), count);
                kernels::SoftmaxBwdRow(go_s.data(), y_s.data(), dot,
                                       gi_s.data(), count);
                for (int i = 0; i < count; ++i)
                  pa->grad.at(members[i], 0) = gi_s[static_cast<size_t>(i)];
              }
            });
      });
}

Var Transpose(const Var& a) {
  Tensor out = a.value().Transpose();
  return MakeOp(std::move(out), {a}, [](Node& self) {
    auto& pa = self.parents[0];
    if (!NeedsGrad(pa)) return;
    pa->EnsureGrad();
    pa->grad.AddInPlace(self.grad.Transpose());
  });
}

// ---------------------------------------------------------------------------
// Losses.
// ---------------------------------------------------------------------------

Var RowCrossEntropyWithLogits(const Var& logits, const Tensor& targets) {
  TGSIM_CHECK(logits.value().SameShape(targets));
  SparseRowTargets sparse;
  for (int r = 0; r < targets.rows(); ++r) {
    for (int c = 0; c < targets.cols(); ++c)
      if (targets.at(r, c) != 0.0) sparse.AppendEntry(c, targets.at(r, c));
    sparse.FinishRow();
  }
  return RowCrossEntropyWithLogits(logits, std::move(sparse));
}

// The sparse-target loss replays Scale(Sum(Mul(LogSoftmaxRows(x), T)), s)
// with s = -1/R, skipping only the zero entries of T:
//  - Forward: Sum chains log_p * T row-major from +0.0. A zero target adds
//    a zero of either sign, and a chain that starts at +0.0 never holds
//    -0.0, so those adds change no bit; the target entries are chained in
//    the same order (rows, then ascending columns).
//  - Backward: each step of the composition adds into a freshly zeroed
//    gradient, so a target entry receives 0.0 + (0.0 + (0.0 + s * g)) * w
//    and every other entry +0.0. The row's gradient sum skips those +0.0
//    terms for the same reason, and the exp/log-softmax kernels then run
//    on the rebuilt n-wide row exactly as LogSoftmaxRows' backward does
//    (ExpRow(x, log_z) equals its ExpRow(x - log_z, 0.0) bit for bit).
Var RowCrossEntropyWithLogits(const Var& logits, SparseRowTargets targets) {
  const Tensor& x = logits.value();
  const int rows = x.rows();
  const int cols = x.cols();
  TGSIM_CHECK_EQ(targets.rows(), rows);
  TGSIM_CHECK_EQ(targets.cols.size(), targets.weights.size());
  TGSIM_CHECK_EQ(targets.offsets.front(), 0);
  TGSIM_CHECK_EQ(static_cast<size_t>(targets.offsets.back()),
                 targets.cols.size());

  // Sort each row's entries by column (the order Sum walks the scattered
  // row in); a repeated column would have been one scattered entry.
  std::vector<std::pair<int, Scalar>> row_entries;
  for (int r = 0; r < rows; ++r) {
    const int begin = targets.offsets[static_cast<size_t>(r)];
    const int end = targets.offsets[static_cast<size_t>(r) + 1];
    TGSIM_CHECK_LE(begin, end);
    row_entries.clear();
    for (int e = begin; e < end; ++e)
      row_entries.emplace_back(targets.cols[static_cast<size_t>(e)],
                               targets.weights[static_cast<size_t>(e)]);
    std::sort(row_entries.begin(), row_entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (int e = begin; e < end; ++e) {
      const auto [c, w] = row_entries[static_cast<size_t>(e - begin)];
      TGSIM_CHECK(c >= 0 && c < cols);
      TGSIM_CHECK(e == begin || c > targets.cols[static_cast<size_t>(e) - 1]);
      targets.cols[static_cast<size_t>(e)] = c;
      targets.weights[static_cast<size_t>(e)] = w;
    }
  }

  std::vector<Scalar> log_z(static_cast<size_t>(rows));
  parallel::ParallelFor(
      0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
        std::vector<Scalar> scratch(static_cast<size_t>(cols));
        for (int64_t ri = r0; ri < r1; ++ri) {
          const int r = static_cast<int>(ri);
          const Scalar m = kernels::RowMax(x.row(r), cols);
          const Scalar z = kernels::ExpRowSum(x.row(r), m, scratch.data(),
                                              cols);
          log_z[static_cast<size_t>(r)] = m + std::log(z);
        }
      });
  Scalar total = 0.0;
  for (int r = 0; r < rows; ++r)
    for (int e = targets.offsets[static_cast<size_t>(r)];
         e < targets.offsets[static_cast<size_t>(r) + 1]; ++e)
      total += (x.at(r, targets.cols[static_cast<size_t>(e)]) -
                log_z[static_cast<size_t>(r)]) *
               targets.weights[static_cast<size_t>(e)];
  const Scalar scale = -1.0 / static_cast<Scalar>(rows);
  Tensor out(1, 1);
  out.at(0, 0) = total * scale;

  return MakeOp(
      std::move(out), {logits},
      [t = std::move(targets), log_z = std::move(log_z), scale](Node& self) {
        auto& pa = self.parents[0];
        if (!NeedsGrad(pa)) return;
        pa->EnsureGrad();
        const Scalar g_entry = 0.0 + (0.0 + scale * self.grad.at(0, 0));
        const int cols = pa->value.cols();
        parallel::ParallelFor(
            0, pa->value.rows(), RowGrain(cols),
            [&](int64_t r0, int64_t r1) {
              std::vector<Scalar> go(static_cast<size_t>(cols), 0.0);
              std::vector<Scalar> p(static_cast<size_t>(cols));
              for (int64_t ri = r0; ri < r1; ++ri) {
                const int r = static_cast<int>(ri);
                const int begin = t.offsets[static_cast<size_t>(r)];
                const int end = t.offsets[static_cast<size_t>(r) + 1];
                Scalar gsum = 0.0;
                for (int e = begin; e < end; ++e) {
                  const Scalar ge =
                      0.0 + g_entry * t.weights[static_cast<size_t>(e)];
                  go[static_cast<size_t>(t.cols[static_cast<size_t>(e)])] =
                      ge;
                  gsum += ge;
                }
                kernels::ExpRow(pa->value.row(r),
                                log_z[static_cast<size_t>(r)], p.data(),
                                cols);
                kernels::LogSoftmaxBwdRow(go.data(), p.data(), gsum,
                                          pa->grad.row(r), cols);
                for (int e = begin; e < end; ++e)
                  go[static_cast<size_t>(t.cols[static_cast<size_t>(e)])] =
                      0.0;
              }
            });
      });
}

Var SampledSoftmaxCrossEntropy(const Var& logits,
                               const SparseRowTargets& targets) {
  const Tensor& x = logits.value();
  const int rows = x.rows();
  const int cols = x.cols();
  TGSIM_CHECK_EQ(targets.rows(), rows);
  TGSIM_CHECK_EQ(targets.cols.size(), targets.weights.size());
  for (int c : targets.cols) TGSIM_CHECK(c >= 0 && c < cols);
  TGSIM_CHECK_GT(rows, 0);

  // Per-row losses computed in parallel (disjoint slots), combined by a
  // serial ascending sweep so the total keeps one FP association for any
  // thread count.
  std::vector<Scalar> row_loss(static_cast<size_t>(rows), 0.0);
  parallel::ParallelFor(
      0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
        std::vector<Scalar> scratch(static_cast<size_t>(cols));
        for (int64_t ri = r0; ri < r1; ++ri) {
          const int r = static_cast<int>(ri);
          const int begin = targets.offsets[static_cast<size_t>(r)];
          const int end = targets.offsets[static_cast<size_t>(r) + 1];
          if (begin == end) continue;
          const Scalar m = kernels::RowMax(x.row(r), cols);
          const Scalar z = kernels::ExpRowSum(x.row(r), m, scratch.data(),
                                              cols);
          Scalar log_z = m + std::log(z);
          Scalar loss = 0.0;
          for (int e = begin; e < end; ++e)
            loss += targets.weights[static_cast<size_t>(e)] *
                    (log_z - x.at(r, targets.cols[static_cast<size_t>(e)]));
          row_loss[static_cast<size_t>(r)] = loss;
        }
      });
  Scalar total = 0.0;
  for (Scalar l : row_loss) total += l;
  Tensor out(1, 1);
  out.at(0, 0) = total / static_cast<Scalar>(rows);

  SparseRowTargets tcopy = targets;
  return MakeOp(
      std::move(out), {logits},
      [t = std::move(tcopy), rows](Node& self) {
        auto& pa = self.parents[0];
        if (!NeedsGrad(pa)) return;
        pa->EnsureGrad();
        const Scalar g = self.grad.at(0, 0) / static_cast<Scalar>(rows);
        const int cols = pa->value.cols();
        // d/dl_c = W_r * softmax(l)_c - w_c, with W_r the row's target
        // mass. Rows are disjoint across chunks.
        parallel::ParallelFor(
            0, static_cast<int64_t>(rows), RowGrain(cols),
            [&](int64_t r0, int64_t r1) {
              std::vector<Scalar> scratch(static_cast<size_t>(cols));
              for (int64_t ri = r0; ri < r1; ++ri) {
                const int r = static_cast<int>(ri);
                const int begin = t.offsets[static_cast<size_t>(r)];
                const int end = t.offsets[static_cast<size_t>(r) + 1];
                if (begin == end) continue;
                Scalar mass = 0.0;
                for (int e = begin; e < end; ++e)
                  mass += t.weights[static_cast<size_t>(e)];
                const Scalar* xr = pa->value.row(r);
                const Scalar m = kernels::RowMax(xr, cols);
                const Scalar z =
                    kernels::ExpRowSum(xr, m, scratch.data(), cols);
                // grad += ((g*mass) * exp(x-m)) / z, with the g*mass
                // product hoisted exactly as the old inline expression
                // associated it.
                kernels::AxpyDivRow(g * mass, scratch.data(), z,
                                    pa->grad.row(r), cols);
                for (int e = begin; e < end; ++e)
                  pa->grad.at(r, t.cols[static_cast<size_t>(e)]) -=
                      g * t.weights[static_cast<size_t>(e)];
              }
            });
      });
}

Var BinaryCrossEntropyWithLogits(const Var& logits, const Tensor& targets,
                                 Scalar pos_weight) {
  TGSIM_CHECK(logits.value().SameShape(targets));
  const Tensor& x = logits.value();
  Tensor out(1, 1);
  Scalar total = 0.0;
  for (int64_t i = 0; i < x.size(); ++i) {
    Scalar xi = x.data()[i];
    Scalar ti = targets.data()[i];
    // Stable formulation: max(x,0) - x*t + log(1+exp(-|x|)), with the
    // positive term scaled by pos_weight.
    Scalar softplus = std::log1p(std::exp(-std::fabs(xi)));
    Scalar loss_pos = softplus + std::max(-xi, static_cast<Scalar>(0.0));
    Scalar loss_neg = softplus + std::max(xi, static_cast<Scalar>(0.0));
    total += pos_weight * ti * loss_pos + (1.0 - ti) * loss_neg;
  }
  int64_t n = x.size();
  out.at(0, 0) = total / static_cast<Scalar>(n);
  Tensor targets_copy = targets;
  return MakeOp(std::move(out), {logits},
                [targets = std::move(targets_copy), pos_weight,
                 n](Node& self) {
                  auto& pa = self.parents[0];
                  if (!NeedsGrad(pa)) return;
                  pa->EnsureGrad();
                  Scalar g = self.grad.at(0, 0) / static_cast<Scalar>(n);
                  for (int64_t i = 0; i < pa->value.size(); ++i) {
                    Scalar xi = pa->value.data()[i];
                    Scalar ti = targets.data()[i];
                    Scalar s = 1.0 / (1.0 + std::exp(-xi));
                    // d/dx [w*t*softplus(-x) + (1-t)*softplus(x)]
                    Scalar d = -pos_weight * ti * (1.0 - s) +
                               (1.0 - ti) * s;
                    pa->grad.data()[i] += g * d;
                  }
                });
}

Var KlToStandardNormal(const Var& mu, const Var& logvar) {
  TGSIM_CHECK(mu.value().SameShape(logvar.value()));
  // -0.5 * sum(1 + logvar - mu^2 - exp(logvar)) / rows
  Var term = Sub(Sub(AddScalar(logvar, 1.0), Square(mu)), Exp(logvar));
  int rows = mu.rows();
  return Scale(Sum(term), -0.5 / static_cast<Scalar>(rows));
}

Var MseLoss(const Var& pred, const Tensor& target) {
  TGSIM_CHECK(pred.value().SameShape(target));
  Var diff = Sub(pred, Var::Constant(target));
  return Mean(Square(diff));
}

}  // namespace tgsim::nn
