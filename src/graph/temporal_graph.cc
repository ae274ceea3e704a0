#include "graph/temporal_graph.h"

#include <algorithm>
#include <limits>
#include <string>

namespace tgsim::graphs {

std::span<const TemporalNeighbor> WithinTimeWindow(
    std::span<const TemporalNeighbor> nbrs, Timestamp t, int time_window) {
  const Timestamp lo = static_cast<Timestamp>(t - time_window);
  const Timestamp hi = static_cast<Timestamp>(t + time_window);
  auto first = std::lower_bound(
      nbrs.begin(), nbrs.end(), lo,
      [](const TemporalNeighbor& a, Timestamp x) { return a.t < x; });
  auto last = std::upper_bound(
      first, nbrs.end(), hi,
      [](Timestamp x, const TemporalNeighbor& a) { return x < a.t; });
  return {first, last};
}

Status CheckShapeJustifiedByEdges(int64_t num_nodes, int64_t num_timestamps,
                                  int64_t num_edges) {
  constexpr int64_t kFloor = int64_t{1} << 21;
  constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
  // Both bounds stop at INT_MAX, so capping m there keeps 2m in range
  // without moving either bound.
  const int64_t m = std::min(num_edges, kMaxInt);
  if (num_nodes <= std::min(kMaxInt, std::max(kFloor, 2 * m)) &&
      num_timestamps <= std::min(kMaxInt, std::max(kFloor, m)))
    return Status::Ok();
  return Status::InvalidArgument(
      "shape " + std::to_string(num_nodes) + " nodes x " +
      std::to_string(num_timestamps) + " timestamps is more than its " +
      std::to_string(num_edges) + " edges justify (bound: max(2^21, " +
      "2 x edges) nodes, max(2^21, edges) timestamps)");
}

TemporalGraph::TemporalGraph(int num_nodes, int num_timestamps)
    : num_nodes_(num_nodes), num_timestamps_(num_timestamps) {
  TGSIM_CHECK_GT(num_nodes, 0);
  TGSIM_CHECK_GT(num_timestamps, 0);
}

TemporalGraph TemporalGraph::FromEdges(int num_nodes, int num_timestamps,
                                       std::vector<TemporalEdge> edges) {
  TemporalGraph g(num_nodes, num_timestamps);
  g.edges_ = std::move(edges);
  g.Finalize();
  return g;
}

void TemporalGraph::AddEdge(NodeId u, NodeId v, Timestamp t) {
  TGSIM_CHECK(!finalized_);
  edges_.push_back({u, v, t});
}

namespace {

/// One stable counting-sort pass: writes `from` into `to` ordered by the
/// `key` field, equal keys keeping their input order, and returns the
/// bucket starts (size bound + 1; the last is the edge count). Every key is
/// range-checked in every build, since it indexes the counts.
std::vector<int64_t> CountingPass(const std::vector<TemporalEdge>& from,
                                  std::vector<TemporalEdge>& to, int bound,
                                  int32_t TemporalEdge::*key) {
  std::vector<int64_t> starts(static_cast<size_t>(bound) + 1, 0);
  for (const TemporalEdge& e : from) {
    TGSIM_CHECK(e.*key >= 0 && e.*key < bound);
    ++starts[static_cast<size_t>(e.*key) + 1];
  }
  for (size_t k = 1; k < starts.size(); ++k) starts[k] += starts[k - 1];
  std::vector<int64_t> cursor(starts.begin(), starts.end() - 1);
  for (const TemporalEdge& e : from)
    to[static_cast<size_t>(cursor[static_cast<size_t>(e.*key)]++)] = e;
  return starts;
}

/// Sort key of the adjacency order, by time and then by the other endpoint.
/// Both fields are non-negative, so one 64-bit compare orders them.
uint64_t AdjacencyKey(const TemporalNeighbor& a) {
  return static_cast<uint64_t>(static_cast<uint32_t>(a.t)) << 32 |
         static_cast<uint32_t>(a.node);
}

}  // namespace

void TemporalGraph::Finalize() {
  TGSIM_CHECK(!finalized_);
  const size_t n = static_cast<size_t>(num_nodes_);

  // Edge stream in (t, u, v) order: stable counting passes on v, then u,
  // then t. Equal keys are equal edges, so this is the order std::sort
  // gives. The u pass's buckets are the out-adjacency offsets and the t
  // pass's the timestamp offsets.
  {
    std::vector<TemporalEdge> scratch(edges_.size());
    CountingPass(edges_, scratch, num_nodes_, &TemporalEdge::v);
    out_offsets_ = CountingPass(scratch, edges_, num_nodes_, &TemporalEdge::u);
    t_offsets_ =
        CountingPass(edges_, scratch, num_timestamps_, &TemporalEdge::t);
    edges_.swap(scratch);
  }

  // Bidirectional adjacency: node x's segment is its out-run followed by
  // its in-run (edges y -> x with y != x, so a self-loop is listed once).
  adj_offsets_.assign(n + 1, 0);
  for (const TemporalEdge& e : edges_)
    if (e.u != e.v) ++adj_offsets_[static_cast<size_t>(e.v) + 1];
  std::vector<int64_t> cursor(n);
  for (size_t x = 0; x < n; ++x) {
    const int64_t out_degree = out_offsets_[x + 1] - out_offsets_[x];
    adj_offsets_[x + 1] += adj_offsets_[x] + out_degree;
    cursor[x] = adj_offsets_[x] + out_degree;
  }
  adj_.resize(static_cast<size_t>(adj_offsets_[n]));
  // Scatter each in-run into the tail of its segment; it arrives sorted by
  // (t, u) because edges_ is.
  for (const TemporalEdge& e : edges_)
    if (e.u != e.v)
      adj_[static_cast<size_t>(cursor[static_cast<size_t>(e.v)]++)] = {
          e.u, e.t};

  // Directed out-adjacency: a scatter by source, so each node's run
  // arrives sorted by (t, v).
  out_adj_.resize(edges_.size());
  std::copy(out_offsets_.begin(), out_offsets_.end() - 1, cursor.begin());
  for (const TemporalEdge& e : edges_)
    out_adj_[static_cast<size_t>(cursor[static_cast<size_t>(e.u)]++)] = {
        e.v, e.t};

  // Merge the out-run forward into the head, selecting rather than
  // branching on each comparison. The write cursor never passes the unread
  // tail. Once a run is spent, the rest of the out-run is copied, and the
  // rest of the tail is already in place.
  for (size_t x = 0; x < n; ++x) {
    const TemporalNeighbor* out = out_adj_.data() + out_offsets_[x];
    const TemporalNeighbor* const out_end =
        out_adj_.data() + out_offsets_[x + 1];
    TemporalNeighbor* write = adj_.data() + adj_offsets_[x];
    const TemporalNeighbor* in = write + (out_end - out);
    const TemporalNeighbor* const in_end = adj_.data() + adj_offsets_[x + 1];
    while (out != out_end && in != in_end) {
      const bool take_in = AdjacencyKey(*in) < AdjacencyKey(*out);
      *write++ = *(take_in ? in : out);
      in += take_in;
      out += !take_in;
    }
    std::copy(out, out_end, write);
  }
  finalized_ = true;
}

std::span<const TemporalEdge> TemporalGraph::EdgesAt(Timestamp t) const {
  TGSIM_CHECK(finalized_);
  TGSIM_CHECK(t >= 0 && t < num_timestamps_);
  return {edges_.data() + t_offsets_[t],
          static_cast<size_t>(t_offsets_[t + 1] - t_offsets_[t])};
}

std::span<const TemporalNeighbor> TemporalGraph::Neighbors(NodeId u) const {
  TGSIM_CHECK(finalized_);
  return {adj_.data() + adj_offsets_[u],
          static_cast<size_t>(adj_offsets_[u + 1] - adj_offsets_[u])};
}

std::span<const TemporalNeighbor> TemporalGraph::OutNeighbors(
    NodeId u) const {
  TGSIM_CHECK(finalized_);
  return {out_adj_.data() + out_offsets_[u],
          static_cast<size_t>(out_offsets_[u + 1] - out_offsets_[u])};
}

std::vector<TemporalNeighbor> TemporalGraph::OutNeighborhood(
    NodeId u, Timestamp t, int time_window) const {
  auto run = WithinTimeWindow(OutNeighbors(u), t, time_window);
  return {run.begin(), run.end()};
}

std::vector<TemporalNeighbor> TemporalGraph::TemporalNeighborhood(
    NodeId u, Timestamp t, int time_window) const {
  auto run = WithinTimeWindow(Neighbors(u), t, time_window);
  return {run.begin(), run.end()};
}

int64_t TemporalGraph::TemporalDegree(NodeId u, Timestamp t,
                                      int time_window) const {
  return static_cast<int64_t>(
      WithinTimeWindow(Neighbors(u), t, time_window).size());
}

int64_t TemporalGraph::NumTemporalNodes() const {
  TGSIM_CHECK(finalized_);
  int64_t count = 0;
  for (int u = 0; u < num_nodes_; ++u) {
    auto nbrs = Neighbors(u);
    Timestamp prev = -1;
    for (const TemporalNeighbor& nb : nbrs) {
      if (nb.t != prev) {
        ++count;
        prev = nb.t;
      }
    }
  }
  return count;
}

StaticGraph TemporalGraph::SnapshotUpTo(Timestamp t) const {
  TGSIM_CHECK(finalized_);
  TGSIM_CHECK(t >= 0 && t < num_timestamps_);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  int64_t end = t_offsets_[t + 1];
  pairs.reserve(static_cast<size_t>(end));
  for (int64_t i = 0; i < end; ++i) pairs.emplace_back(edges_[i].u, edges_[i].v);
  return StaticGraph::FromEdgeList(num_nodes_, pairs);
}

StaticGraph TemporalGraph::SnapshotAt(Timestamp t) const {
  auto span = EdgesAt(t);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(span.size());
  for (const TemporalEdge& e : span) pairs.emplace_back(e.u, e.v);
  return StaticGraph::FromEdgeList(num_nodes_, pairs);
}

std::vector<int64_t> TemporalGraph::EdgesPerTimestamp() const {
  TGSIM_CHECK(finalized_);
  std::vector<int64_t> counts(static_cast<size_t>(num_timestamps_));
  for (int t = 0; t < num_timestamps_; ++t)
    counts[t] = t_offsets_[t + 1] - t_offsets_[t];
  return counts;
}

}  // namespace tgsim::graphs
