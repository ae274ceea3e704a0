#ifndef TGSIM_GRAPH_TEMPORAL_GRAPH_H_
#define TGSIM_GRAPH_TEMPORAL_GRAPH_H_

#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "graph/static_graph.h"
#include "graph/types.h"

namespace tgsim::graphs {

/// A neighbor occurrence (v, t): the other endpoint of a temporal edge and
/// the edge's timestamp.
struct TemporalNeighbor {
  NodeId node;
  Timestamp t;

  friend bool operator==(const TemporalNeighbor& a,
                         const TemporalNeighbor& b) {
    return a.node == b.node && a.t == b.t;
  }
};

/// The entries of `nbrs`, which must be sorted by t, with
/// |t' - t| <= time_window: a contiguous run, found by binary search. The
/// one time-window search of the library; callers pass `Neighbors(u)` or
/// `OutNeighbors(u)` of a finalized graph and read the run in place.
std::span<const TemporalNeighbor> WithinTimeWindow(
    std::span<const TemporalNeighbor> nbrs, Timestamp t, int time_window);

/// The shape bound of a graph read from outside the program (an edge list,
/// or an artifact's shape or support graph), checked before anything sized
/// by its counts is allocated: m edges justify at most max(2^21, 2m) nodes
/// and max(2^21, m) timestamps, and neither count may pass INT_MAX. A larger
/// shape is InvalidArgument.
Status CheckShapeJustifiedByEdges(int64_t num_nodes, int64_t num_timestamps,
                                  int64_t num_edges);

/// A temporal graph G~ = {G_1, ..., G_T}: a stream of directed timestamped
/// edges over a fixed node set (paper Def. 2).
///
/// Construction: AddEdge repeatedly, then Finalize() to build the indexes.
/// All query methods require a finalized graph.
class TemporalGraph {
 public:
  TemporalGraph(int num_nodes, int num_timestamps);

  /// Builds and finalizes in one step.
  static TemporalGraph FromEdges(int num_nodes, int num_timestamps,
                                 std::vector<TemporalEdge> edges);

  void AddEdge(NodeId u, NodeId v, Timestamp t);
  /// Sorts edges by (t, u, v) and builds timestamp offsets + per-node
  /// adjacency (both directions, sorted by (t, other endpoint)). Linear
  /// passes, O(m + n + T): three stable counting passes order the edges
  /// (one transient m-edge copy, freed before the adjacency build), a
  /// scatter by source builds the out-adjacency, and each node's in-edges
  /// are merged with its out-run in place. Aborts, in every build, on an
  /// edge outside [0, n) x [0, n) x [0, T).
  void Finalize();
  bool finalized() const { return finalized_; }

  int num_nodes() const { return num_nodes_; }
  int num_timestamps() const { return num_timestamps_; }
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }
  const std::vector<TemporalEdge>& edges() const { return edges_; }

  /// Edges with timestamp exactly t (finalized graphs only).
  std::span<const TemporalEdge> EdgesAt(Timestamp t) const;

  /// All temporal neighbors of u across time (in + out), sorted by t.
  std::span<const TemporalNeighbor> Neighbors(NodeId u) const;

  /// Directed out-neighbors of u across time, sorted by t.
  std::span<const TemporalNeighbor> OutNeighbors(NodeId u) const;

  /// Out-neighbor occurrences with |t' - t| <= time_window (the directed
  /// adjacency row A_{u^t} of the paper's Eq. 6 when time_window = 0), as
  /// a copy of `WithinTimeWindow(OutNeighbors(u), t, time_window)`.
  std::vector<TemporalNeighbor> OutNeighborhood(NodeId u, Timestamp t,
                                                int time_window) const;

  /// First-order temporal neighborhood of (u, t): neighbor occurrences with
  /// |t' - t| <= time_window (paper Def. 3 with d_N = 1), as a copy of
  /// `WithinTimeWindow(Neighbors(u), t, time_window)`.
  std::vector<TemporalNeighbor> TemporalNeighborhood(NodeId u, Timestamp t,
                                                     int time_window) const;

  /// Temporal degree of the temporal node (u, t): the number of first-order
  /// temporal neighbors (the paper's re-weighting quantity, Eq. 2).
  int64_t TemporalDegree(NodeId u, Timestamp t, int time_window) const;

  /// Number of distinct temporal nodes (node occurrences).
  int64_t NumTemporalNodes() const;

  /// Accumulated snapshot: the simple undirected graph of all edges with
  /// timestamp <= t. This is the object the paper's f_avg/f_med metrics
  /// compare (Section V.A, Eq. 10).
  StaticGraph SnapshotUpTo(Timestamp t) const;

  /// Snapshot of edges with timestamp exactly t.
  StaticGraph SnapshotAt(Timestamp t) const;

  /// Number of temporal edges at each timestamp.
  std::vector<int64_t> EdgesPerTimestamp() const;

 private:
  int num_nodes_;
  int num_timestamps_;
  bool finalized_ = false;
  std::vector<TemporalEdge> edges_;          // sorted by (t,u,v) once final
  std::vector<int64_t> t_offsets_;           // size T+1
  std::vector<int64_t> adj_offsets_;         // size n+1
  std::vector<TemporalNeighbor> adj_;        // grouped by node, sorted by t
  std::vector<int64_t> out_offsets_;         // size n+1
  std::vector<TemporalNeighbor> out_adj_;    // directed, sorted by t
};

}  // namespace tgsim::graphs

#endif  // TGSIM_GRAPH_TEMPORAL_GRAPH_H_
