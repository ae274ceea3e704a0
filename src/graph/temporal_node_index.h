#ifndef TGSIM_GRAPH_TEMPORAL_NODE_INDEX_H_
#define TGSIM_GRAPH_TEMPORAL_NODE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace tgsim::graphs {

/// Map from a temporal node to a non-negative int (its position in a
/// caller's node list): the interning table of the ego sampler and the
/// bipartite stack.
///
/// Open addressing with linear probing over a power-of-two slot array. The
/// key is the packed (node, t) word (`PackTemporalNode`), so two distinct
/// temporal nodes never share a key, and it is hashed by
/// `TemporalNodeRefHash`. The table doubles before it passes half load.
/// `Clear()` empties only the slots filled since the last `Clear()`, so a
/// table reused across egos or layers costs what each use filled, not its
/// capacity.
class TemporalNodeIndex {
 public:
  /// Grows the table, if needed, so `count` keys fit without rehashing.
  void Reserve(size_t count);

  /// Maps `key` to `value` (>= 0) unless `key` is present. Returns the
  /// stored value and whether this call inserted it.
  std::pair<int, bool> Insert(TemporalNodeRef key, int value);

  void Clear();

 private:
  struct Slot {
    uint64_t key = 0;
    int value = -1;  // -1: empty
  };

  /// The slot holding the packed key, or the empty slot where it would go.
  size_t Probe(uint64_t packed) const;
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;     // power-of-two size (or empty)
  std::vector<size_t> filled_;  // slots filled since Clear(), in order
};

}  // namespace tgsim::graphs

#endif  // TGSIM_GRAPH_TEMPORAL_NODE_INDEX_H_
