#include "sampling/samplers.h"

#include <cmath>
#include <string>

namespace tgsim::sampling {

AliasTable::AliasTable(std::span<const double> weights) {
  const size_t n = weights.size();
  if (n == 0) return;
  double total = 0.0;
  for (double w : weights) {
    TGSIM_DCHECK(w >= 0.0);
    total += w;
  }
  TGSIM_CHECK_GT(total, 0.0);

  prob_.assign(n, 1.0);
  alias_.resize(n);
  // Vose's method. Scale every weight so the mean slot mass is 1, then
  // repeatedly pair an under-full slot with an over-full one. Stacks are
  // filled in ascending index order and processed LIFO, so the resulting
  // table is a deterministic function of the weights alone.
  // Scale as (w / total) * n — dividing first keeps the ratio in [0, 1],
  // so a denormal total cannot overflow the scale factor to inf (which
  // would turn zero weights into 0 * inf = NaN and misfile them into the
  // over-full stack as drawable slots).
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i)
    scaled[i] = (weights[i] / total) * static_cast<double>(n);

  std::vector<size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  size_t last_positive = 0;
  for (size_t i = 0; i < n; ++i) {
    if (weights[i] > 0.0) last_positive = i;
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    size_t s = small.back();
    small.pop_back();
    size_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = static_cast<int64_t>(l);
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers hold (up to rounding) exactly one unit of mass: their slot is
  // all their own. A zero-weight leftover is impossible short of extreme
  // drift, but guard anyway — such a slot must never win a draw.
  for (size_t l : large) alias_[l] = static_cast<int64_t>(l);
  for (size_t s : small) {
    if (weights[s] > 0.0) {
      alias_[s] = static_cast<int64_t>(s);
    } else {
      prob_[s] = 0.0;
      alias_[s] = static_cast<int64_t>(last_positive);
    }
  }
}

Status ValidateWeights(std::span<const double> weights) {
  double total = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!std::isfinite(weights[i]))
      return Status::InvalidArgument("weight " + std::to_string(i) +
                                     " is not finite");
    if (weights[i] < 0.0)
      return Status::InvalidArgument("weight " + std::to_string(i) +
                                     " is negative");
    total += weights[i];
  }
  if (!(total > 0.0 && std::isfinite(total)))
    return Status::InvalidArgument(
        "weights have no positive, finite total mass");
  return Status::Ok();
}

void TreeSampler::Assign(std::span<const double> weights) {
  n_ = weights.size();
  if (n_ == 0) {
    cap_ = 0;
    tree_.clear();
    return;
  }
  cap_ = 1;
  while (cap_ < n_) cap_ <<= 1;
  tree_.assign(2 * cap_, 0.0);
  for (size_t i = 0; i < n_; ++i) {
    TGSIM_DCHECK(weights[i] >= 0.0);
    tree_[cap_ + i] = weights[i];
  }
  for (size_t node = cap_ - 1; node >= 1; --node)
    tree_[node] = tree_[2 * node] + tree_[2 * node + 1];
}

size_t TreeSampler::Draw(Rng& rng) const {
  TGSIM_CHECK_GT(total(), 0.0);
  double r = rng.Uniform() * tree_[1];
  size_t node = 1;
  while (node < cap_) {
    const double left = tree_[2 * node];
    // Descend left on r < left; also force left when the right subtree is
    // empty (floating-point drift can push r past every positive leaf, and
    // the padding leaves beyond n_ are always zero). The symmetric case —
    // left empty — falls through naturally since r >= 0 >= left.
    if (r < left || !(tree_[2 * node + 1] > 0.0)) {
      node = 2 * node;
    } else {
      r -= left;
      node = 2 * node + 1;
    }
  }
  size_t idx = node - cap_;
  TGSIM_DCHECK(idx < n_);
  return idx;
}

void TreeSampler::Update(size_t i, double w) {
  TGSIM_CHECK(i < n_);
  TGSIM_DCHECK(w >= 0.0);
  size_t node = cap_ + i;
  tree_[node] = w;
  for (node >>= 1; node >= 1; node >>= 1)
    tree_[node] = tree_[2 * node] + tree_[2 * node + 1];
}

size_t WeightedPick(std::span<const double> weights, Rng& rng) {
  TGSIM_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    TGSIM_DCHECK(w >= 0.0);
    total += w;
  }
  TGSIM_CHECK_GT(total, 0.0);
  double r = rng.Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  // Drift guard (r rounding up to the exact total): never return a
  // zero-weight entry — zero marks an already-consumed slot in
  // without-replacement loops, and returning it would emit a duplicate.
  for (size_t i = weights.size(); i-- > 0;)
    if (weights[i] > 0.0) return i;
  return weights.size() - 1;  // Unreachable: total > 0 was checked above.
}

}  // namespace tgsim::sampling
