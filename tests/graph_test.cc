#include <algorithm>
#include <cstdlib>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "config/param_map.h"
#include "datasets/synthetic.h"
#include "eval/registry.h"
#include "graph/static_graph.h"
#include "graph/temporal_graph.h"
#include "graph/temporal_node_index.h"
#include "gtest/gtest.h"

namespace tgsim::graphs {
namespace {

TemporalGraph MakeToyGraph() {
  // 5 nodes, 3 timestamps:
  // t=0: 0->1, 1->2
  // t=1: 0->2, 3->4
  // t=2: 2->0, 0->1 (repeat pair)
  return TemporalGraph::FromEdges(
      5, 3,
      {{0, 1, 0}, {1, 2, 0}, {0, 2, 1}, {3, 4, 1}, {2, 0, 2}, {0, 1, 2}});
}

TEST(TemporalGraphTest, BasicCounts) {
  TemporalGraph g = MakeToyGraph();
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.num_timestamps(), 3);
  EXPECT_EQ(g.num_edges(), 6);
}

TEST(TemporalGraphTest, EdgesAreSortedAfterFinalize) {
  TemporalGraph g(3, 2);
  g.AddEdge(2, 1, 1);
  g.AddEdge(0, 1, 0);
  g.AddEdge(1, 2, 0);
  g.Finalize();
  const auto& e = g.edges();
  EXPECT_TRUE(std::is_sorted(e.begin(), e.end()));
}

TEST(TemporalGraphTest, EdgesAtSlicesByTimestamp) {
  TemporalGraph g = MakeToyGraph();
  EXPECT_EQ(g.EdgesAt(0).size(), 2u);
  EXPECT_EQ(g.EdgesAt(1).size(), 2u);
  EXPECT_EQ(g.EdgesAt(2).size(), 2u);
  EXPECT_EQ(g.EdgesAt(0)[0].u, 0);
  // Within a timestamp, edges are sorted by (u, v): (0,1,2) then (2,0,2).
  EXPECT_EQ(g.EdgesAt(2)[0].u, 0);
  EXPECT_EQ(g.EdgesAt(2)[1].u, 2);
}

TEST(TemporalGraphTest, EdgesPerTimestamp) {
  TemporalGraph g = MakeToyGraph();
  std::vector<int64_t> counts = g.EdgesPerTimestamp();
  EXPECT_EQ(counts, (std::vector<int64_t>{2, 2, 2}));
}

TEST(TemporalGraphTest, NeighborsAreBidirectionalAndTimeSorted) {
  TemporalGraph g = MakeToyGraph();
  auto nbrs = g.Neighbors(0);
  // Node 0 touches: (1,0) out, (2,1) out, (2,2) in, (1,2) out.
  ASSERT_EQ(nbrs.size(), 4u);
  for (size_t i = 1; i < nbrs.size(); ++i)
    EXPECT_LE(nbrs[i - 1].t, nbrs[i].t);
}

TEST(TemporalGraphTest, OutNeighborsAreDirected) {
  TemporalGraph g = MakeToyGraph();
  auto out0 = g.OutNeighbors(0);
  EXPECT_EQ(out0.size(), 3u);  // (1,0), (2,1), (1,2).
  auto out4 = g.OutNeighbors(4);
  EXPECT_EQ(out4.size(), 0u);  // Node 4 only receives.
}

TEST(TemporalGraphTest, OutNeighborhoodWindow) {
  TemporalGraph g = MakeToyGraph();
  auto w0 = g.OutNeighborhood(0, 0, 0);
  ASSERT_EQ(w0.size(), 1u);
  EXPECT_EQ(w0[0].node, 1);
  auto w2 = g.OutNeighborhood(0, 1, 1);
  EXPECT_EQ(w2.size(), 3u);  // All of node 0's out-edges are within +-1 of 1.
}

TEST(TemporalGraphTest, TemporalNeighborhoodRespectsWindow) {
  TemporalGraph g = MakeToyGraph();
  EXPECT_EQ(g.TemporalNeighborhood(0, 0, 0).size(), 1u);
  EXPECT_EQ(g.TemporalNeighborhood(0, 0, 1).size(), 2u);
  EXPECT_EQ(g.TemporalNeighborhood(0, 0, 2).size(), 4u);
  EXPECT_EQ(g.TemporalNeighborhood(3, 1, 0).size(), 1u);
  EXPECT_EQ(g.TemporalNeighborhood(3, 0, 0).size(), 0u);
}

TEST(TemporalGraphTest, TemporalDegreeMatchesNeighborhoodSize) {
  TemporalGraph g = MakeToyGraph();
  for (NodeId u = 0; u < 5; ++u)
    for (Timestamp t = 0; t < 3; ++t)
      for (int w = 0; w <= 2; ++w)
        EXPECT_EQ(g.TemporalDegree(u, t, w),
                  static_cast<int64_t>(g.TemporalNeighborhood(u, t, w).size()));
}

TEST(TemporalGraphTest, NumTemporalNodesCountsDistinctOccurrences) {
  TemporalGraph g = MakeToyGraph();
  // Occurrences: 0@{0,1,2}, 1@{0,2}, 2@{0,1,2}, 3@{1}, 4@{1} = 10.
  EXPECT_EQ(g.NumTemporalNodes(), 10);
}

TEST(TemporalGraphTest, SnapshotUpToAccumulates) {
  TemporalGraph g = MakeToyGraph();
  StaticGraph s0 = g.SnapshotUpTo(0);
  EXPECT_EQ(s0.num_edges(), 2);
  StaticGraph s2 = g.SnapshotUpTo(2);
  // {0,1},{1,2},{0,2},{3,4},{0,2}dup,{0,1}dup -> 4 simple edges.
  EXPECT_EQ(s2.num_edges(), 4);
}

TEST(TemporalGraphTest, SnapshotAtIsSingleTimestamp) {
  TemporalGraph g = MakeToyGraph();
  EXPECT_EQ(g.SnapshotAt(1).num_edges(), 2);
}

TEST(TemporalGraphTest, SelfLoopCountedOnceInAdjacency) {
  TemporalGraph g = TemporalGraph::FromEdges(2, 1, {{0, 0, 0}, {0, 1, 0}});
  EXPECT_EQ(g.Neighbors(0).size(), 2u);  // Self-loop once + neighbor 1.
}

TEST(TemporalGraphDeathTest, QueriesRequireFinalize) {
  TemporalGraph g(2, 2);
  g.AddEdge(0, 1, 0);
  EXPECT_DEATH(g.EdgesAt(0), "CHECK failed");
}

TEST(TemporalGraphDeathTest, AddAfterFinalizeAborts) {
  TemporalGraph g(2, 2);
  g.Finalize();
  EXPECT_DEATH(g.AddEdge(0, 1, 0), "CHECK failed");
}

TEST(TemporalGraphDeathTest, OutOfRangeEdgeAborts) {
  EXPECT_DEATH(TemporalGraph::FromEdges(2, 2, {{0, 5, 0}}), "CHECK failed");
  EXPECT_DEATH(TemporalGraph::FromEdges(2, 2, {{5, 0, 0}}), "CHECK failed");
  EXPECT_DEATH(TemporalGraph::FromEdges(2, 2, {{0, 1, 7}}), "CHECK failed");
  EXPECT_DEATH(TemporalGraph::FromEdges(2, 2, {{0, 1, -1}}), "CHECK failed");
}

TEST(TemporalGraphDeathTest, OutOfRangeAddEdgeAbortsInFinalize) {
  // Finalize range-checks every edge in Release builds too: an unchecked
  // id would index past its counting arrays.
  EXPECT_DEATH(
      {
        TemporalGraph g(2, 1);
        g.AddEdge(0, 5, 0);
        g.Finalize();
      },
      "CHECK failed");
}

// ---------------------------------------------------------------------------
// Finalize against a reference index built with comparison sorts.
// ---------------------------------------------------------------------------

/// The indexes a finalized graph exposes, rebuilt the straightforward way:
/// std::sort on (t, u, v), then each node's occurrences (both directions,
/// a self-loop once) sorted by (t, other endpoint).
struct ReferenceIndex {
  std::vector<TemporalEdge> edges;
  std::vector<std::vector<TemporalNeighbor>> neighbors;
  std::vector<std::vector<TemporalNeighbor>> out_neighbors;
};

ReferenceIndex BuildReference(int num_nodes, std::vector<TemporalEdge> edges) {
  ReferenceIndex ref;
  std::sort(edges.begin(), edges.end());
  ref.neighbors.resize(static_cast<size_t>(num_nodes));
  ref.out_neighbors.resize(static_cast<size_t>(num_nodes));
  for (const TemporalEdge& e : edges) {
    ref.out_neighbors[static_cast<size_t>(e.u)].push_back({e.v, e.t});
    ref.neighbors[static_cast<size_t>(e.u)].push_back({e.v, e.t});
    if (e.u != e.v)
      ref.neighbors[static_cast<size_t>(e.v)].push_back({e.u, e.t});
  }
  const auto by_time_then_node = [](const TemporalNeighbor& a,
                                    const TemporalNeighbor& b) {
    return a.t < b.t || (a.t == b.t && a.node < b.node);
  };
  for (auto& list : ref.neighbors)
    std::sort(list.begin(), list.end(), by_time_then_node);
  for (auto& list : ref.out_neighbors)
    std::sort(list.begin(), list.end(), by_time_then_node);
  ref.edges = std::move(edges);
  return ref;
}

/// Element-for-element comparison of every index g exposes.
void ExpectMatchesReference(const TemporalGraph& g, const ReferenceIndex& ref,
                            const std::string& label) {
  ASSERT_EQ(g.edges(), ref.edges) << label;
  size_t begin = 0;
  for (Timestamp t = 0; t < g.num_timestamps(); ++t) {
    size_t end = begin;
    while (end < ref.edges.size() && ref.edges[end].t == t) ++end;
    const auto at = g.EdgesAt(t);
    ASSERT_EQ(std::vector<TemporalEdge>(at.begin(), at.end()),
              std::vector<TemporalEdge>(ref.edges.begin() + begin,
                                        ref.edges.begin() + end))
        << label << " t=" << t;
    begin = end;
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.Neighbors(u);
    ASSERT_EQ(std::vector<TemporalNeighbor>(nbrs.begin(), nbrs.end()),
              ref.neighbors[static_cast<size_t>(u)])
        << label << " Neighbors(" << u << ")";
    const auto out = g.OutNeighbors(u);
    ASSERT_EQ(std::vector<TemporalNeighbor>(out.begin(), out.end()),
              ref.out_neighbors[static_cast<size_t>(u)])
        << label << " OutNeighbors(" << u << ")";
  }
}

TEST(TemporalGraphFinalizeTest, MatchesComparisonSortReference) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed + 1000);
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    const int num_t = static_cast<int>(rng.UniformInt(1, 6));
    // Every tenth graph has no edges; the rest mix dense and sparse ones.
    const int64_t m = seed % 10 == 0 ? 0 : rng.UniformInt(1, 4 * n + 20);
    // Some graphs touch only part of the node range, leaving isolated
    // nodes at both ends.
    const int lo = static_cast<int>(rng.UniformInt(0, (n - 1) / 3));
    const int hi = static_cast<int>(rng.UniformInt(lo, n - 1));
    std::vector<TemporalEdge> edges;
    for (int64_t i = 0; i < m; ++i) {
      const auto node = [&] {
        return static_cast<NodeId>(rng.UniformInt(lo, hi));
      };
      const NodeId u = node();
      const NodeId v = rng.Bernoulli(0.15) ? u : node();  // Self-loops.
      const auto t = static_cast<Timestamp>(rng.UniformInt(num_t));
      edges.push_back({u, v, t});
      // Repeated edges, in both directions and at the same timestamp.
      if (rng.Bernoulli(0.2)) edges.push_back({u, v, t});
      if (rng.Bernoulli(0.1)) edges.push_back({v, u, t});
    }
    rng.Shuffle(edges);
    const std::string label = "seed " + std::to_string(seed);
    const ReferenceIndex ref = BuildReference(n, edges);

    TemporalGraph added(n, num_t);
    for (const TemporalEdge& e : edges) added.AddEdge(e.u, e.v, e.t);
    added.Finalize();
    ExpectMatchesReference(added, ref, label + " AddEdge");
    ExpectMatchesReference(TemporalGraph::FromEdges(n, num_t, edges), ref,
                           label + " FromEdges");
  }
}

TEST(TemporalGraphFinalizeTest, GeneratedGraphsReindexIdentically) {
  const TemporalGraph observed = datasets::MakeMimicByName("DBLP", 0.03, 5);
  for (const std::string& method : eval::AllMethodNames()) {
    config::ParamMap fast;
    fast.Override("preset", "fast");
    auto gen = std::move(eval::MakeGenerator(method, fast)).value();
    Rng rng(17);
    gen->Fit(observed, rng);
    const TemporalGraph out = gen->Generate(rng);
    std::vector<TemporalEdge> shuffled = out.edges();
    rng.Shuffle(shuffled);
    const ReferenceIndex ref = BuildReference(out.num_nodes(), shuffled);
    ExpectMatchesReference(out, ref, method);
    ExpectMatchesReference(
        TemporalGraph::FromEdges(out.num_nodes(), out.num_timestamps(),
                                 std::move(shuffled)),
        ref, method + " reindexed");
  }
}

// ---------------------------------------------------------------------------
// StaticGraph.
// ---------------------------------------------------------------------------

TEST(StaticGraphTest, DedupsAndDropsSelfLoops) {
  StaticGraph g = StaticGraph::FromEdgeList(
      4, {{0, 1}, {1, 0}, {2, 2}, {1, 2}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_EQ(g.Degree(2), 1);
  EXPECT_EQ(g.Degree(3), 0);
}

TEST(StaticGraphTest, NeighborsAreSorted) {
  StaticGraph g =
      StaticGraph::FromEdgeList(5, {{2, 4}, {2, 0}, {2, 3}, {2, 1}});
  auto nbrs = g.Neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(StaticGraphTest, HasEdgeIsSymmetric) {
  StaticGraph g = StaticGraph::FromEdgeList(3, {{0, 1}});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(StaticGraphTest, ConnectedComponents) {
  StaticGraph g =
      StaticGraph::FromEdgeList(6, {{0, 1}, {1, 2}, {3, 4}});
  int count = 0;
  std::vector<int> comp = g.ConnectedComponents(&count);
  EXPECT_EQ(count, 3);  // {0,1,2}, {3,4}, {5}.
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[0], comp[5]);
}

TEST(StaticGraphTest, EmptyGraph) {
  StaticGraph g = StaticGraph::FromEdgeList(3, {});
  EXPECT_EQ(g.num_edges(), 0);
  int count = 0;
  g.ConnectedComponents(&count);
  EXPECT_EQ(count, 3);
}

TEST(StaticGraphTest, DegreesMatchAccessor) {
  StaticGraph g = StaticGraph::FromEdgeList(4, {{0, 1}, {0, 2}, {0, 3}});
  std::vector<int> d = g.Degrees();
  EXPECT_EQ(d, (std::vector<int>{3, 1, 1, 1}));
}

// ---------------------------------------------------------------------------
// TemporalNodeRefHash: collision smoke over a dense node x time grid.
// ---------------------------------------------------------------------------

TEST(TemporalNodeRefHashTest, NoCollisionsOnDenseGrid) {
  // The splitmix64 finalizer is a bijection on the packed (node, t) word,
  // so every full 64-bit hash over the grid must be distinct.
  constexpr int kNodes = 200, kTimes = 200;
  TemporalNodeRefHash hash;
  std::set<size_t> seen;
  for (NodeId u = 0; u < kNodes; ++u)
    for (Timestamp t = 0; t < kTimes; ++t)
      seen.insert(hash(TemporalNodeRef{u, t}));
  EXPECT_EQ(seen.size(), static_cast<size_t>(kNodes) * kTimes);
}

TEST(TemporalNodeRefHashTest, LowBitsSpreadAcrossBuckets) {
  // Power-of-two hash tables use the low bits; a dense grid must fill
  // every small bucket space. The pre-splitmix multiply-based hash failed
  // exactly this: consecutive t at fixed node stepped buckets linearly.
  constexpr int kNodes = 64, kTimes = 64, kBuckets = 256;
  TemporalNodeRefHash hash;
  std::set<size_t> buckets;
  for (NodeId u = 0; u < kNodes; ++u)
    for (Timestamp t = 0; t < kTimes; ++t)
      buckets.insert(hash(TemporalNodeRef{u, t}) % kBuckets);
  EXPECT_EQ(buckets.size(), static_cast<size_t>(kBuckets));
}

// ---------------------------------------------------------------------------
// TemporalNodeIndex: the flat interning table.
// ---------------------------------------------------------------------------

TEST(TemporalNodeIndexTest, InsertKeepsTheFirstValue) {
  TemporalNodeIndex index;
  EXPECT_EQ(index.Insert({3, 4}, 7), (std::pair<int, bool>{7, true}));
  EXPECT_EQ(index.Insert({3, 4}, 9), (std::pair<int, bool>{7, false}));
  EXPECT_EQ(index.Insert({4, 3}, 9), (std::pair<int, bool>{9, true}));
  EXPECT_EQ(index.Insert({4, 3}, 1), (std::pair<int, bool>{9, false}));
}

TEST(TemporalNodeIndexTest, GrowsAndClearsWithoutLosingKeys) {
  // A dense node x time grid, inserted without Reserve, crosses several
  // doublings and keeps every value; a Clear then forgets every key, so
  // the second round inserts the grid afresh with new values. Keys that a
  // `node * 4000037 + t` encoding would alias stay apart.
  TemporalNodeIndex index;
  for (int round = 0; round < 2; ++round) {
    int value = round * 10000;
    for (NodeId u = 0; u < 60; ++u)
      for (Timestamp t = 0; t < 60; ++t)
        ASSERT_TRUE(index.Insert({u, t}, value++).second);
    value = round * 10000;
    for (NodeId u = 0; u < 60; ++u)
      for (Timestamp t = 0; t < 60; ++t)
        ASSERT_EQ(index.Insert({u, t}, 0).first, value++);
    index.Clear();
  }
  index.Reserve(2);
  EXPECT_TRUE(index.Insert({1, 0}, 0).second);
  EXPECT_TRUE(index.Insert({0, 4000037}, 1).second);
  EXPECT_EQ(index.Insert({0, 4000037}, 2).first, 1);
}

TEST(TemporalGraphTest, WithinTimeWindowIsTheFilteredRun) {
  // The binary-searched run equals a linear filter of the adjacency, for
  // both directions and for windows reaching past either end of time.
  TemporalGraph g = MakeToyGraph();
  auto filtered = [](std::span<const TemporalNeighbor> nbrs, Timestamp t,
                     int w) {
    std::vector<TemporalNeighbor> out;
    for (const TemporalNeighbor& nb : nbrs)
      if (std::abs(nb.t - t) <= w) out.push_back(nb);
    return out;
  };
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (Timestamp t = 0; t < g.num_timestamps(); ++t) {
      for (int w = 0; w <= 3; ++w) {
        auto all = WithinTimeWindow(g.Neighbors(u), t, w);
        auto out = WithinTimeWindow(g.OutNeighbors(u), t, w);
        EXPECT_EQ(std::vector<TemporalNeighbor>(all.begin(), all.end()),
                  filtered(g.Neighbors(u), t, w));
        EXPECT_EQ(std::vector<TemporalNeighbor>(out.begin(), out.end()),
                  filtered(g.OutNeighbors(u), t, w));
      }
    }
  }
}

}  // namespace
}  // namespace tgsim::graphs
