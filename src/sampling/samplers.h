#ifndef TGSIM_SAMPLING_SAMPLERS_H_
#define TGSIM_SAMPLING_SAMPLERS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"

namespace tgsim::sampling {

/// Vose/Walker alias table: O(n) deterministic build, O(1) draw.
///
/// Use it whenever the distribution is fixed across many draws — start
/// distributions, activity rates, score-matrix edge weights. Each draw
/// consumes exactly two values from the `Rng` stream (a slot index and a
/// coin), independent of n, and the table itself is a pure deterministic
/// function of the input weights: the same weights always produce the same
/// `prob()`/`alias()` arrays, so a table rebuilt from serialized weights
/// draws bit-identically to the original.
///
/// Zero-weight entries are never returned: their slot probability is
/// exactly 0 and their alias points at a positive-weight entry.
class AliasTable {
 public:
  /// Empty table; `Draw` is illegal until a non-empty one is assigned.
  AliasTable() = default;

  /// Builds the table from non-negative weights. Requires a positive total
  /// unless `weights` is empty (which yields an empty table).
  explicit AliasTable(std::span<const double> weights);

  size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }

  /// O(1) draw of an index in [0, size()). Requires a non-empty table.
  size_t Draw(Rng& rng) const {
    TGSIM_DCHECK(!prob_.empty());
    size_t i = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(prob_.size())));
    return rng.Uniform() < prob_[i] ? i : static_cast<size_t>(alias_[i]);
  }

  /// Slot acceptance probabilities / alias targets (resident-size
  /// accounting and determinism tests read them).
  const std::vector<double>& prob() const { return prob_; }
  const std::vector<int64_t>& alias() const { return alias_; }

 private:
  std::vector<double> prob_;
  std::vector<int64_t> alias_;
};

/// Ok when `weights` can build an AliasTable: every entry finite and
/// non-negative, and a positive, finite total. Otherwise InvalidArgument
/// naming the first offending entry. Artifact loaders run this on the
/// weights they read before rebuilding a table, so corrupt weights fail
/// the load instead of CHECK-aborting in the build (zero mass) or drawing
/// from a table poisoned by inf/NaN.
Status ValidateWeights(std::span<const double> weights);

/// Complete-binary-tree prefix-sum sampler: O(n) build, O(log n) draw and
/// O(log n) single-weight update.
///
/// This is the without-replacement workhorse: draw an index, then
/// `Update(i, 0.0)` to consume it. Internal sums are recomputed exactly
/// from the children on every update, so once every leaf is zero `total()`
/// is exactly 0.0 — callers can loop on `total() > 0` without an epsilon.
/// A draw consumes exactly one `Rng::Uniform()` and always lands on a
/// positive-weight leaf (zero-sum subtrees are never descended into).
class TreeSampler {
 public:
  TreeSampler() = default;

  explicit TreeSampler(std::span<const double> weights) { Assign(weights); }

  /// (Re)builds the tree from non-negative weights.
  void Assign(std::span<const double> weights);

  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Exact sum of the current leaf weights (0.0 when empty/consumed).
  double total() const { return n_ == 0 ? 0.0 : tree_[1]; }

  /// Current weight of leaf i.
  double weight(size_t i) const {
    TGSIM_DCHECK(i < n_);
    return tree_[cap_ + i];
  }

  /// Draws an index in [0, size()) with probability proportional to its
  /// current weight. Requires total() > 0.
  size_t Draw(Rng& rng) const;

  /// Sets leaf i's weight to `w` (>= 0) and refreshes the path sums.
  void Update(size_t i, double w);

 private:
  size_t n_ = 0;    // number of leaves in use
  size_t cap_ = 0;  // power-of-two leaf capacity; leaves live at [cap_, cap_+n_)
  std::vector<double> tree_;
};

/// Samples an index in [0, weights.size()) with probability proportional
/// to weights[i] by one linear scan, consuming one `Uniform()`. Weights must
/// be non-negative with a positive sum. Drift guard: on floating-point
/// overshoot it falls back to the last positive-weight index, never a
/// zero-weight one.
size_t WeightedPick(std::span<const double> weights, Rng& rng);

}  // namespace tgsim::sampling

#endif  // TGSIM_SAMPLING_SAMPLERS_H_
