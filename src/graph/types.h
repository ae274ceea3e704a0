#ifndef TGSIM_GRAPH_TYPES_H_
#define TGSIM_GRAPH_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <tuple>

namespace tgsim::graphs {

/// Node identifier in [0, num_nodes).
using NodeId = int32_t;
/// Discrete timestamp in [0, num_timestamps) — the paper models the
/// temporal graph as a series of snapshots G_1..G_T.
using Timestamp = int32_t;

/// A directed timestamped interaction (u -> v at time t).
struct TemporalEdge {
  NodeId u = 0;
  NodeId v = 0;
  Timestamp t = 0;

  friend bool operator==(const TemporalEdge& a, const TemporalEdge& b) {
    return a.u == b.u && a.v == b.v && a.t == b.t;
  }
  friend bool operator<(const TemporalEdge& a, const TemporalEdge& b) {
    return std::tie(a.t, a.u, a.v) < std::tie(b.t, b.u, b.v);
  }
};

/// A temporal node v^t (paper Def. 1): a node occurrence at a timestamp.
struct TemporalNodeRef {
  NodeId node = 0;
  Timestamp t = 0;

  friend bool operator==(const TemporalNodeRef& a, const TemporalNodeRef& b) {
    return a.node == b.node && a.t == b.t;
  }
  friend bool operator<(const TemporalNodeRef& a, const TemporalNodeRef& b) {
    return std::tie(a.t, a.node) < std::tie(b.t, b.node);
  }
};

/// The temporal node (node, t) as one 64-bit word: node in the high half,
/// t in the low half. Distinct temporal nodes always get distinct words.
inline uint64_t PackTemporalNode(const TemporalNodeRef& k) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(k.node)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(k.t));
}

/// Hash functor for TemporalNodeRef (for flat hash sets/maps).
///
/// Applies the splitmix64 finalizer to the packed (node, t) word. The
/// finalizer is a bijection on 64-bit words, so distinct temporal nodes
/// never collide on the full hash, and its avalanche keeps the low bits
/// (the ones power-of-two hash tables actually use) well mixed even for
/// the dense node x time grids the ego sampler produces.
struct TemporalNodeRefHash {
  size_t operator()(const TemporalNodeRef& k) const {
    return OfPacked(PackTemporalNode(k));
  }

  /// The same hash, of an already packed word.
  static size_t OfPacked(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

}  // namespace tgsim::graphs

#endif  // TGSIM_GRAPH_TYPES_H_
