#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "nn/kernels.h"
#include "parallel/parallel_for.h"

namespace tgsim::nn {

namespace {

using parallel::kElementwiseGrain;
using parallel::RowGrain;

/// False while a NoGradScope is open on this thread.
thread_local bool t_record_tape = true;

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

/// Cost of one SegmentSoftmax member, forward or backward, in summed
/// scalars: a gather, its share of the SoftmaxRow (or Dot + SoftmaxBwdRow)
/// pass and a scatter, against one add per scalar of a SegmentSum. Chosen
/// by a BM_SegmentSoftmax sweep over 1 to 64 at 4 threads, where 16 to 32
/// ran fastest at 10000 members; 16 keeps a softmax of up to 2048 members
/// inline, so a TGAE generate's (about 1000) still runs without the pool.
constexpr int kSoftmaxCost = 16;

/// Work per GraphAttention task at least, in multiply-adds (a softmax
/// member counted as kSoftmaxCost): the MatMul panel floor, below which
/// handing work to the pool costs more CPU than it saves wall time. The
/// attention of a TGAE generate (up to about 1000 in-edges at two heads of
/// width 16) runs inline, as the separate ops it replaces did.
constexpr int64_t kAttentionGrain = int64_t{1} << 18;

/// Runs fn(s0, s1) over consecutive segment ranges [s0, s1) that each cost
/// about `grain` summed scalars (`member_cost` per member), so a small
/// segment op runs inline as one range. The ranges depend only on the
/// segment sizes, never on the thread count, and each segment (and so
/// each output row it owns) belongs to exactly one range.
template <typename Fn>
void ForSegmentChunks(const SegmentIndex& index, int member_cost, Fn&& fn,
                      int64_t grain = kElementwiseGrain) {
  const int num_segments = index.num_segments();
  std::vector<int> bounds{0};
  int64_t scalars = 0;
  for (int s = 0; s < num_segments; ++s) {
    scalars += (index.end(s) - index.begin(s)) * int64_t{member_cost};
    if (scalars >= grain && s + 1 < num_segments) {
      bounds.push_back(s + 1);
      scalars = 0;
    }
  }
  bounds.push_back(num_segments);
  parallel::ParallelFor(
      0, static_cast<int64_t>(bounds.size()) - 1, 1,
      [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
          const auto i = static_cast<size_t>(c);
          fn(bounds[i], bounds[i + 1]);
        }
      });
}

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

NoGradScope::NoGradScope() : previous_(t_record_tape) {
  t_record_tape = false;
}

NoGradScope::~NoGradScope() { t_record_tape = previous_; }

namespace {

/// Builds an op node: value, parent edges and the backward closure. Under
/// a NoGradScope the node keeps its value only, and the closure is never
/// wrapped in a std::function.
template <typename BackwardFn>
Var MakeOp(Tensor value, std::vector<Var> parents, BackwardFn&& backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  for (const Var& p : parents) TGSIM_CHECK(p.defined());
  if (!t_record_tape) return Var::FromNode(std::move(node));
  node->parents.reserve(parents.size());
  bool needs_grad = false;
  for (const Var& p : parents) {
    node->parents.push_back(p.node());
    needs_grad = needs_grad || p.node()->requires_grad;
  }
  node->requires_grad = needs_grad;
  if (needs_grad) node->backward_fn = std::forward<BackwardFn>(backward);
  return Var::FromNode(std::move(node));
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

/// Shared plumbing for elementwise y=f(x) with dy/dx = dydx(x, y). Kept
/// for the activations whose f is a libm call the SIMD backends do not
/// mirror (tanh, log) or that are cold (square); the hot activations go
/// through RowKernelOp above. Like RowKernelOp's, both callables are
/// template parameters, so each element's call is inlined rather than
/// made through a type-erased wrapper.
template <typename FwdFn, typename DydxFn>
Var ElementwiseOp(const Var& a, FwdFn fwd, DydxFn dydx) {
  Tensor out = a.value();
  parallel::ParallelFor(0, out.size(), kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i)
                            out.data()[i] = fwd(out.data()[i]);
                        });
  return MakeOp(std::move(out), {a},
                [dydx](Node& self) {
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
  ForSegmentChunks(index, a.cols(), [&](int64_t s0, int64_t s1) {
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
  ForSegmentChunks(*index, kSoftmaxCost, [&](int64_t s0, int64_t s1) {
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
        ForSegmentChunks(*index, kSoftmaxCost, [&](int64_t s0, int64_t s1) {
          std::vector<Scalar> go_s, y_s, gi_s;
          for (int64_t s = s0; s < s1; ++s) {
            const int si = static_cast<int>(s);
            const int* members = index->begin(si);
            const int count = static_cast<int>(index->end(si) - members);
            if (count == 0) continue;
            go_s.resize(static_cast<size_t>(count));
            y_s.resize(static_cast<size_t>(count));
            gi_s.resize(static_cast<size_t>(count));
            for (int i = 0; i < count; ++i) {
              go_s[static_cast<size_t>(i)] = self.grad.at(members[i], 0);
              y_s[static_cast<size_t>(i)] = self.value.at(members[i], 0);
              gi_s[static_cast<size_t>(i)] = pa->grad.at(members[i], 0);
            }
            const Scalar dot = kernels::Dot(go_s.data(), y_s.data(), count);
            kernels::SoftmaxBwdRow(go_s.data(), y_s.data(), dot,
                                   gi_s.data(), count);
            for (int i = 0; i < count; ++i)
              pa->grad.at(members[i], 0) = gi_s[static_cast<size_t>(i)];
          }
        });
      });
}

namespace {

/// What GraphAttention's backward reads, saved only when the op records a
/// tape. Per-edge entries are edge-major: entry i * H + h is edge i, head h.
struct AttentionTape {
  std::vector<int> src;
  std::vector<int> dst;
  SegmentIndex by_dst;        // target -> its in-edges, ascending
  SegmentIndex by_src;        // projection row -> the edges it sources
  std::vector<Scalar> alpha;  // attention weight
  std::vector<Scalar> raw;    // score before its LeakyReLU
  Tensor agg;                 // head outputs before their LeakyReLU
};

}  // namespace

// GraphAttention replays the per-head composition (see autograd.h) with its
// arithmetic unchanged:
//  - Forward: a score is the MatMul's one ascending chain over
//    [proj[src] || proj[dst]] . a_h, the softmax runs SoftmaxRow over the
//    target's in-edges in ascending edge order as SegmentSoftmax does, and
//    the aggregate chains alpha * proj[src] over the same edges from +0.0
//    as MulColBroadcast + SegmentSum do.
//  - Backward: every gradient the composition accumulates into a freshly
//    zeroed tensor is one add chain from +0.0 here too, in the same order.
//    The composition's extra `0.0 + x` steps (a fresh tensor taking its
//    first term) only turn a -0.0 term into +0.0; every such term ends up
//    added to a chain that starts at +0.0, and such a chain never holds
//    -0.0, so adding a zero of either sign leaves the same bits. The
//    per-edge [E x d] gradients of the gathers are never stored: a
//    projection row takes each term as soon as it is formed.
Var GraphAttention(const Var& proj, const std::vector<Var>& a_heads,
                   const std::vector<int>& src, const std::vector<int>& dst,
                   int n_dst, Scalar slope) {
  const int heads = static_cast<int>(a_heads.size());
  TGSIM_CHECK_GE(heads, 1);
  const int width = proj.cols();
  const int d = width / heads;
  TGSIM_CHECK_EQ(d * heads, width);
  for (const Var& a : a_heads) {
    TGSIM_CHECK_EQ(a.rows(), 2 * d);
    TGSIM_CHECK_EQ(a.cols(), 1);
  }
  const int n_src = proj.rows();
  TGSIM_CHECK(0 <= n_dst && n_dst <= n_src);
  TGSIM_CHECK_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i)
    TGSIM_CHECK(src[i] >= 0 && src[i] < n_src && dst[i] >= 0 &&
                dst[i] < n_dst);

  bool needs_grad = proj.requires_grad();
  for (const Var& a : a_heads) needs_grad = needs_grad || a.requires_grad();
  const bool record = t_record_tape && needs_grad;
  const Tensor& x = proj.value();
  const size_t num_entries = src.size() * static_cast<size_t>(heads);
  auto entry = [heads](int i, int h) {
    return static_cast<size_t>(i * heads + h);
  };
  SegmentIndex by_dst(dst, n_dst);
  std::vector<Scalar> alpha(record ? num_entries : 0);
  std::vector<Scalar> raw(record ? num_entries : 0);
  Tensor agg = record ? Tensor(n_dst, width) : Tensor();
  Tensor out(n_dst, width);
  // Per in-edge and head: the 2d-long score, a softmax member and a d-long
  // aggregate update.
  const int member_cost = 3 * width + heads * kSoftmaxCost;
  ForSegmentChunks(
      by_dst, member_cost,
      [&](int64_t s0, int64_t s1) {
        std::vector<Scalar> scores, probs;
        for (int64_t si = s0; si < s1; ++si) {
          const int s = static_cast<int>(si);
          const int* members = by_dst.begin(s);
          const int count = static_cast<int>(by_dst.end(s) - members);
          Scalar* o = out.row(s);
          scores.resize(static_cast<size_t>(count));
          probs.resize(static_cast<size_t>(count));
          for (int h = 0; count > 0 && h < heads; ++h) {
            const Scalar* a = a_heads[static_cast<size_t>(h)].value().data();
            const Scalar* query = x.row(s) + h * d;
            for (int j = 0; j < count; ++j) {
              const int i = members[j];
              Scalar e = kernels::Dot(
                  x.row(src[static_cast<size_t>(i)]) + h * d, a, d);
              for (int k = 0; k < d; ++k) e += query[k] * a[d + k];
              if (record) raw[entry(i, h)] = e;
              scores[static_cast<size_t>(j)] = e > 0.0 ? e : slope * e;
            }
            kernels::SoftmaxRow(scores.data(), probs.data(), count);
            for (int j = 0; j < count; ++j) {
              const int i = members[j];
              kernels::AxpyRow(probs[static_cast<size_t>(j)],
                               x.row(src[static_cast<size_t>(i)]) + h * d,
                               o + h * d, d);
              if (record) alpha[entry(i, h)] = probs[static_cast<size_t>(j)];
            }
          }
          if (record)
            std::memcpy(agg.row(s), o,
                        static_cast<size_t>(width) * sizeof(Scalar));
          kernels::LeakyReluRow(o, slope, o, width);
        }
      },
      kAttentionGrain);

  std::vector<Var> parents{proj};
  parents.insert(parents.end(), a_heads.begin(), a_heads.end());
  if (!record) return MakeOp(std::move(out), std::move(parents), [](Node&) {});
  auto tape = std::make_shared<const AttentionTape>(AttentionTape{
      src, dst, std::move(by_dst), SegmentIndex(src, n_src), std::move(alpha),
      std::move(raw), std::move(agg)});
  return MakeOp(
      std::move(out), std::move(parents),
      [tape = std::move(tape), heads, d, member_cost, slope,
       entry](Node& self) {
        const AttentionTape& t = *tape;
        const Tensor& x = self.parents[0]->value;
        const Tensor& g = self.grad;
        const int width = heads * d;
        const int num_edges = static_cast<int>(t.src.size());
        auto a_of = [&](int h) {
          return self.parents[static_cast<size_t>(1 + h)]->value.data();
        };

        // Per target: g_agg, the aggregate's gradient through the output
        // LeakyReLU, then per in-edge g_raw, the score's gradient through
        // the softmax and the score LeakyReLU.
        Tensor g_agg(g.rows(), width);
        std::vector<Scalar> g_raw(t.src.size() * static_cast<size_t>(heads));
        ForSegmentChunks(
            t.by_dst, member_cost,
            [&](int64_t s0, int64_t s1) {
              std::vector<Scalar> g_alpha, alpha;
              for (int64_t si = s0; si < s1; ++si) {
                const int s = static_cast<int>(si);
                kernels::LeakyReluBwdRow(g.row(s), t.agg.row(s), slope,
                                         g_agg.row(s), width);
                const int* members = t.by_dst.begin(s);
                const int count = static_cast<int>(t.by_dst.end(s) - members);
                g_alpha.resize(static_cast<size_t>(count));
                alpha.resize(static_cast<size_t>(count));
                for (int h = 0; count > 0 && h < heads; ++h) {
                  for (int j = 0; j < count; ++j) {
                    const int i = members[j];
                    g_alpha[static_cast<size_t>(j)] = kernels::Dot(
                        g_agg.row(s) + h * d,
                        x.row(t.src[static_cast<size_t>(i)]) + h * d, d);
                    alpha[static_cast<size_t>(j)] = t.alpha[entry(i, h)];
                  }
                  const Scalar dot =
                      kernels::Dot(g_alpha.data(), alpha.data(), count);
                  for (int j = 0; j < count; ++j) {
                    const int i = members[j];
                    const Scalar g_score =
                        alpha[static_cast<size_t>(j)] *
                        (g_alpha[static_cast<size_t>(j)] - dot);
                    g_raw[entry(i, h)] =
                        g_score * (t.raw[entry(i, h)] > 0.0 ? 1.0 : slope);
                  }
                }
              }
            },
            kAttentionGrain);

        // a_h: one chain per element over the edges in ascending order.
        std::vector<Scalar> acc(static_cast<size_t>(2 * d));
        for (int h = 0; h < heads; ++h) {
          auto& pa = self.parents[static_cast<size_t>(1 + h)];
          if (!NeedsGrad(pa)) continue;
          pa->EnsureGrad();
          std::fill(acc.begin(), acc.end(), 0.0);
          for (int i = 0; i < num_edges; ++i) {
            const Scalar gr = g_raw[entry(i, h)];
            kernels::AxpyRow(gr, x.row(t.src[static_cast<size_t>(i)]) + h * d,
                             acc.data(), d);
            kernels::AxpyRow(gr, x.row(t.dst[static_cast<size_t>(i)]) + h * d,
                             acc.data() + d, d);
          }
          kernels::AddRow(pa->grad.data(), acc.data(), 2 * d);
        }

        // proj: per row, its target-side terms, then its source-side terms
        // (the alpha * g_agg part plus the score part), each in ascending
        // edge order.
        auto& pp = self.parents[0];
        if (!NeedsGrad(pp)) return;
        pp->EnsureGrad();
        const int n_src = x.rows();
        const int n_dst = g.rows();
        const int64_t row_work =
            int64_t{width} * std::max(1, 2 * num_edges / std::max(1, n_src));
        parallel::ParallelFor(
            0, n_src, std::max<int64_t>(1, kAttentionGrain / row_work),
            [&](int64_t r0, int64_t r1) {
              for (int r = static_cast<int>(r0); r < r1; ++r) {
                Scalar* gr = pp->grad.row(r);
                if (r < n_dst)
                  for (const int* it = t.by_dst.begin(r);
                       it != t.by_dst.end(r); ++it)
                    for (int h = 0; h < heads; ++h)
                      kernels::AxpyRow(g_raw[entry(*it, h)], a_of(h) + d,
                                       gr + h * d, d);
                for (const int* it = t.by_src.begin(r); it != t.by_src.end(r);
                     ++it) {
                  const Scalar* ga =
                      g_agg.row(t.dst[static_cast<size_t>(*it)]);
                  for (int h = 0; h < heads; ++h) {
                    const Scalar al = t.alpha[entry(*it, h)];
                    const Scalar gs = g_raw[entry(*it, h)];
                    const Scalar* a = a_of(h);
                    for (int c = 0; c < d; ++c)
                      gr[h * d + c] += al * ga[h * d + c] + gs * a[c];
                  }
                }
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
