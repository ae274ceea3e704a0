#include "graph/temporal_node_index.h"

#include "common/check.h"

namespace tgsim::graphs {

namespace {

constexpr size_t kMinSlots = 16;

}  // namespace

void TemporalNodeIndex::Reserve(size_t count) {
  size_t capacity = kMinSlots;
  while (capacity < 2 * count) capacity <<= 1;
  if (capacity > slots_.size()) Rehash(capacity);
}

std::pair<int, bool> TemporalNodeIndex::Insert(TemporalNodeRef key,
                                               int value) {
  TGSIM_DCHECK(value >= 0);
  if (2 * (filled_.size() + 1) > slots_.size())
    Rehash(slots_.empty() ? kMinSlots : 2 * slots_.size());
  const uint64_t packed = PackTemporalNode(key);
  const size_t i = Probe(packed);
  Slot& slot = slots_[i];
  if (slot.value >= 0) return {slot.value, false};
  slot.key = packed;
  slot.value = value;
  filled_.push_back(i);
  return {value, true};
}

void TemporalNodeIndex::Clear() {
  for (size_t i : filled_) slots_[i].value = -1;
  filled_.clear();
}

size_t TemporalNodeIndex::Probe(uint64_t packed) const {
  const size_t mask = slots_.size() - 1;
  size_t i = TemporalNodeRefHash::OfPacked(packed) & mask;
  while (slots_[i].value >= 0 && slots_[i].key != packed) i = (i + 1) & mask;
  return i;
}

void TemporalNodeIndex::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  std::vector<size_t> old_filled = std::move(filled_);
  slots_.assign(capacity, Slot{});
  filled_.clear();
  filled_.reserve(old_filled.size());
  // Re-insert in fill order; every key is distinct, so each takes the
  // first empty slot of its probe run.
  for (size_t j : old_filled) {
    const size_t i = Probe(old[j].key);
    slots_[i] = old[j];
    filled_.push_back(i);
  }
}

}  // namespace tgsim::graphs
