#ifndef TGSIM_NN_AUTOGRAD_H_
#define TGSIM_NN_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace tgsim::nn {

/// One vertex of the dynamically built computation DAG.
///
/// Nodes are created by the op functions below and connected through
/// `parents`. `backward_fn` consumes this node's `grad` and accumulates into
/// the parents' `grad` tensors. Users interact with Var, not Node.
struct Node {
  Tensor value;
  Tensor grad;  // Lazily allocated; same shape as value once touched.
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  std::function<void(Node&)> backward_fn;

  /// Allocates (zeroed) grad storage on first use.
  void EnsureGrad() {
    if (!grad.SameShape(value)) grad = Tensor::Zeros(value.rows(), value.cols());
  }
};

/// Handle to a node in the autograd graph. Cheap to copy; two copies refer
/// to the same underlying value/grad storage.
///
/// A Var is either a *parameter* (requires_grad, persists across graph
/// builds), a *constant* (no grad), or an intermediate op result.
class Var {
 public:
  Var() = default;
  explicit Var(Tensor value, bool requires_grad = false);

  /// A trainable parameter.
  static Var Param(Tensor value) { return Var(std::move(value), true); }
  /// A non-trainable input.
  static Var Constant(Tensor value) { return Var(std::move(value), false); }

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }
  const Tensor& grad() const { return node_->grad; }
  Tensor& mutable_grad() { return node_->grad; }
  bool requires_grad() const { return node_ && node_->requires_grad; }
  int rows() const { return node_->value.rows(); }
  int cols() const { return node_->value.cols(); }
  /// Value of a 1x1 tensor (e.g., a loss).
  Scalar item() const;

  void ZeroGrad() {
    if (node_) node_->EnsureGrad(), node_->grad.SetZero();
  }

  std::shared_ptr<Node> node() const { return node_; }

  /// Internal: wraps an existing node (used by the op implementations).
  static Var FromNode(std::shared_ptr<Node> node);

 private:
  std::shared_ptr<Node> node_;
};

/// Runs reverse-mode differentiation from `root`, which must be 1x1 (a
/// scalar loss). Gradients *accumulate* into every reachable node that
/// requires grad; call ZeroGrad (or Adam::ZeroGrad) between steps.
void Backward(const Var& root);

/// While one is open on a thread, the ops built on that thread record no
/// tape: a result has no parents and no backward closure and requires no
/// grad, so each intermediate is freed when its last handle drops instead
/// of staying alive until the graph's root does. Values are unchanged;
/// only Backward through such a result is impossible. Scopes nest, and the
/// destructor restores the state its constructor found, also when an
/// exception unwinds through it. The generators' forward-only Generate
/// opens one; training never does.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  bool previous_;
};

// ---------------------------------------------------------------------------
// Differentiable ops. Each returns a fresh Var wired into the graph.
// ---------------------------------------------------------------------------

/// Matrix product a @ b.
Var MatMul(const Var& a, const Var& b);
/// a @ w + b with `b` a 1 x w.cols() bias row broadcast over a's rows: the
/// fused form of Add(MatMul(a, w), b). Value and gradients are
/// bit-identical to that composition (the bias gradient is reduced in
/// ascending row order), but no second rows x cols tensor is allocated
/// for the sum or for its gradient.
Var Affine(const Var& a, const Var& w, const Var& b);
/// Elementwise a + b; if b is 1 x cols it broadcasts over a's rows.
Var Add(const Var& a, const Var& b);
/// Elementwise a - b (same shape).
Var Sub(const Var& a, const Var& b);
/// Elementwise (Hadamard) product, same shape.
Var Mul(const Var& a, const Var& b);
/// Broadcasts the E x 1 column `w` across a's columns: out[i,j]=a[i,j]*w[i].
/// A building block of the per-head attention composition that
/// GraphAttention is tested against bit for bit.
Var MulColBroadcast(const Var& a, const Var& w);
/// a * s.
Var Scale(const Var& a, Scalar s);
/// a + s (elementwise).
Var AddScalar(const Var& a, Scalar s);

Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);
/// LeakyReLU with the paper's default negative slope 0.2 (Eq. 5).
Var LeakyRelu(const Var& a, Scalar slope = 0.2);
Var Exp(const Var& a);
/// log(max(a, eps)) for numerical safety.
Var Log(const Var& a, Scalar eps = 1e-12);
Var Square(const Var& a);

/// Row-wise softmax / log-softmax (stabilized).
Var SoftmaxRows(const Var& a);
Var LogSoftmaxRows(const Var& a);

/// Scalar sum / mean of all entries (1x1 output).
Var Sum(const Var& a);
Var Mean(const Var& a);

/// Column-wise concatenation [a0 | a1 | ...]; all inputs share rows.
Var ConcatCols(const std::vector<Var>& vs);
/// Columns [begin, end) of a; backward scatter-adds into the slice. It
/// splits the per-head views out of the batched projection in the
/// attention composition that GraphAttention is tested against bit for bit.
Var SliceCols(const Var& a, int begin, int end);
/// out.row(i) = a.row(idx[i]); backward scatter-adds.
Var GatherRows(const Var& a, std::vector<int> idx);
/// out[r, j] = a[r, idx[j]]; backward scatter-adds into the picked columns
/// (duplicate indices accumulate). This is the sparse-decoder primitive:
/// slicing the candidate columns out of the n-wide decoder weight makes the
/// decode matmul O(rows x |candidates|) instead of O(rows x n).
Var GatherCols(const Var& a, std::vector<int> idx);
/// out.row(seg[i]) += a.row(i); `num_segments` rows in the output.
Var SegmentSum(const Var& a, std::vector<int> seg, int num_segments);
/// Softmax over entries sharing a segment id. `scores` is E x 1, seg[i] in
/// [0, num_segments). This is the attention-normalization primitive of the
/// TGAT encoder (paper Eq. 5). Empty segments produce no output entries.
Var SegmentSoftmax(const Var& scores, std::vector<int> seg, int num_segments);
/// Multi-head graph attention over the bipartite edges (src[i] -> dst[i])
/// of one TGAT layer (paper Eq. 3-5), the output of every head written
/// straight into its columns of one [n_dst x H*d] tensor. `proj` holds the
/// H head projections side by side ([n_src x H*d]; head h owns columns
/// [h*d, (h+1)*d)), and a_heads[h] is head h's 2d x 1 attention vector.
/// Target i is projection row i, whose slice is its query. Per head and
/// target s, over the edges into s in ascending edge order:
///   e_i = LeakyReLU(a_h . [proj[src_i] || proj[s]], slope)
///   alpha = softmax(e)
///   out[s] = LeakyReLU(sum_i alpha_i proj[src_i], slope)
/// A target without in-edges gets a zero output row and passes its
/// projection row no gradient. Value and gradients are bit-identical to the
/// per-head composition SliceCols, GatherRows by src and by dst,
/// ConcatCols, MatMul with a_h, LeakyRelu, SegmentSoftmax, MulColBroadcast,
/// SegmentSum and LeakyRelu, concatenated with ConcatCols, whenever proj's
/// gradient is zero when the backward reaches it (as a freshly computed
/// projection's is): each projection row takes its target-side terms
/// before its source-side terms, each in ascending edge order, and each
/// element of an a_h gradient is one ascending chain over the edges from
/// +0.0. The op keeps no per-edge [E x d] tensor; its backward saves
/// O(E*H) scalars and the [n_dst x H*d] pre-activation.
Var GraphAttention(const Var& proj, const std::vector<Var>& a_heads,
                   const std::vector<int>& src, const std::vector<int>& dst,
                   int n_dst, Scalar slope);

Var Transpose(const Var& a);

// ---------------------------------------------------------------------------
// Losses.
// ---------------------------------------------------------------------------

/// Mean over rows of -<target_row, log_softmax(logit_row)>. This is the
/// reconstruction term of the paper's Eq. 6/7 where each target row is the
/// (normalized) adjacency row A_{u^t}. The nonzero entries of `targets`
/// are scored through the sparse-target overload below.
Var RowCrossEntropyWithLogits(const Var& logits, const Tensor& targets);

/// Sparse per-row targets in CSR form: row i owns the entries
/// [offsets[i], offsets[i+1]) of cols/weights. `cols` index the columns of
/// the logits they will be scored against: global node ids for the dense
/// decode, candidate slots for a decode over a candidate set. Rows may be
/// empty (zero loss contribution).
struct SparseRowTargets {
  std::vector<int> offsets{0};
  std::vector<int> cols;
  std::vector<Scalar> weights;

  int rows() const { return static_cast<int>(offsets.size()) - 1; }
  void AppendEntry(int col, Scalar weight) {
    cols.push_back(col);
    weights.push_back(weight);
  }
  void FinishRow() { offsets.push_back(static_cast<int>(cols.size())); }
};

/// RowCrossEntropyWithLogits with the targets given sparsely, in the
/// logits' own column space: the loss without a dense target tensor. The
/// softmax runs over the logits' columns only, so logits decoded over a
/// candidate set C make the loss O(|C|) per row instead of O(n). Entries
/// of a row may come in any order; a column may appear at most once per
/// row. Value and gradient are bit-identical to
/// Scale(Sum(Mul(LogSoftmaxRows(logits), Var::Constant(T))), -1.0 / R)
/// on the scattered targets T, while the op allocates no rows x cols
/// tensor of its own.
Var RowCrossEntropyWithLogits(const Var& logits, SparseRowTargets targets);

/// Mean elementwise binary cross entropy with logits; positive entries can
/// be up-weighted (VGAE-style class balancing).
Var BinaryCrossEntropyWithLogits(const Var& logits, const Tensor& targets,
                                 Scalar pos_weight = 1.0);

/// KL( N(mu, diag(exp(logvar))) || N(0, I) ), averaged over rows.
Var KlToStandardNormal(const Var& mu, const Var& logvar);

/// Mean squared error against a constant target.
Var MseLoss(const Var& pred, const Tensor& target);

}  // namespace tgsim::nn

#endif  // TGSIM_NN_AUTOGRAD_H_
