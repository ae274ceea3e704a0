#include "graph/ego_sampler.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "datasets/synthetic.h"
#include "graph/bipartite.h"
#include "gtest/gtest.h"

namespace tgsim::graphs {
namespace {

TemporalGraph MakeDenseHub() {
  // Node 0 is a hub at t=1 connected to 1..9; some periphery edges at t=0/2.
  std::vector<TemporalEdge> edges;
  for (NodeId v = 1; v <= 9; ++v) edges.push_back({0, v, 1});
  edges.push_back({1, 2, 0});
  edges.push_back({3, 4, 2});
  edges.push_back({5, 6, 1});
  return TemporalGraph::FromEdges(10, 3, std::move(edges));
}

TEST(EgoSamplerTest, CenterIsFirstNodeAtDepthZero) {
  TemporalGraph g = MakeDenseHub();
  EgoGraphSampler sampler(&g, {.radius = 2, .neighbor_threshold = 5,
                               .time_window = 1});
  Rng rng(1);
  EgoGraph ego = sampler.Sample({0, 1}, rng);
  EXPECT_EQ(ego.nodes[0].node, 0);
  EXPECT_EQ(ego.nodes[0].t, 1);
  EXPECT_EQ(ego.depth[0], 0);
}

TEST(EgoSamplerTest, DepthNeverExceedsRadius) {
  TemporalGraph g = MakeDenseHub();
  for (int radius : {1, 2, 3}) {
    EgoGraphSampler sampler(&g, {.radius = radius, .neighbor_threshold = 4,
                                 .time_window = 2});
    Rng rng(2);
    EgoGraph ego = sampler.Sample({0, 1}, rng);
    for (int d : ego.depth) EXPECT_LE(d, radius);
  }
}

TEST(EgoSamplerTest, TimeWindowBoundsAllNodes) {
  TemporalGraph g = MakeDenseHub();
  EgoGraphSampler sampler(&g, {.radius = 2, .neighbor_threshold = 0,
                               .time_window = 1});
  Rng rng(3);
  EgoGraph ego = sampler.Sample({1, 0}, rng);
  for (const TemporalNodeRef& node : ego.nodes)
    EXPECT_LE(std::abs(node.t - ego.center.t), 1);
}

TEST(EgoSamplerTest, TruncationBoundsChildCount) {
  TemporalGraph g = MakeDenseHub();
  const int th = 3;
  EgoGraphSampler sampler(&g, {.radius = 1, .neighbor_threshold = th,
                               .time_window = 1});
  Rng rng(4);
  EgoGraph ego = sampler.Sample({0, 1}, rng);
  // Hub has 9 same-time neighbors; with-replacement draws give <= th.
  EXPECT_LE(ego.size(), th + 1);
  EXPECT_GE(ego.size(), 2);
}

TEST(EgoSamplerTest, NoTruncationKeepsWholeNeighborhood) {
  TemporalGraph g = MakeDenseHub();
  EgoGraphSampler sampler(&g, {.radius = 1, .neighbor_threshold = 0,
                               .time_window = 0});
  Rng rng(5);
  EgoGraph ego = sampler.Sample({0, 1}, rng);
  EXPECT_EQ(ego.size(), 10);  // Hub + its 9 exact-time neighbors.
}

TEST(EgoSamplerTest, ThresholdOneYieldsChain) {
  // The TGAE-g variant: every hop samples at most one neighbor.
  TemporalGraph g = MakeDenseHub();
  EgoGraphSampler sampler(&g, {.radius = 3, .neighbor_threshold = 1,
                               .time_window = 2});
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    EgoGraph ego = sampler.Sample({0, 1}, rng);
    std::map<int, int> per_depth;
    for (int d : ego.depth) ++per_depth[d];
    for (auto [depth, count] : per_depth) EXPECT_LE(count, 1);
  }
}

TEST(EgoSamplerTest, EdgesConnectSampledNodes) {
  TemporalGraph g = MakeDenseHub();
  EgoGraphSampler sampler(&g, {.radius = 2, .neighbor_threshold = 4,
                               .time_window = 2});
  Rng rng(7);
  EgoGraph ego = sampler.Sample({0, 1}, rng);
  for (auto [p, c] : ego.edges) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, ego.size());
    EXPECT_GE(c, 0);
    EXPECT_LT(c, ego.size());
    EXPECT_NE(p, c);
  }
}

TEST(EgoSamplerTest, DeterministicGivenSeed) {
  TemporalGraph g = MakeDenseHub();
  EgoGraphSampler sampler(&g, {.radius = 2, .neighbor_threshold = 3,
                               .time_window = 1});
  Rng r1(42), r2(42);
  EgoGraph a = sampler.Sample({0, 1}, r1);
  EgoGraph b = sampler.Sample({0, 1}, r2);
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i)
    EXPECT_TRUE(a.nodes[static_cast<size_t>(i)] ==
                b.nodes[static_cast<size_t>(i)]);
}

// ---------------------------------------------------------------------------
// InitialNodeSampler.
// ---------------------------------------------------------------------------

TEST(InitialNodeSamplerTest, EnumeratesAllOccurrences) {
  TemporalGraph g = MakeDenseHub();
  InitialNodeSampler sampler(&g, /*time_window=*/1);
  // Occurrences: 0@1, 1@{0,1}, 2@{0,1}, 3@{1,2}, 4@{1,2}, 5@1, 6@1, 7..9@1.
  EXPECT_EQ(sampler.occurrences().size(), 14u);
}

TEST(InitialNodeSamplerTest, DegreeWeightedPrefersHub) {
  TemporalGraph g = MakeDenseHub();
  InitialNodeSampler sampler(&g, /*time_window=*/0);
  Rng rng(8);
  std::vector<TemporalNodeRef> draws = sampler.Sample(3000, rng);
  int hub = 0;
  for (const auto& d : draws) hub += d.node == 0;
  // The hub holds 9 of 24 endpoint slots at exact-time degree weighting.
  EXPECT_GT(hub, 3000 * 9 / 24 / 2);
  EXPECT_LT(hub, 3000 * 9 / 24 * 2);
}

TEST(InitialNodeSamplerTest, UniformVariantIsFlat) {
  TemporalGraph g = MakeDenseHub();
  InitialNodeSampler sampler(&g, 0, /*uniform=*/true);
  Rng rng(9);
  std::vector<TemporalNodeRef> draws = sampler.Sample(7000, rng);
  std::map<std::pair<int, int>, int> counts;
  for (const auto& d : draws) ++counts[{d.node, d.t}];
  // 14 occurrences -> ~500 each.
  for (const auto& [key, c] : counts) {
    EXPECT_GT(c, 250);
    EXPECT_LT(c, 1000);
  }
}

// ---------------------------------------------------------------------------
// BipartiteStack.
// ---------------------------------------------------------------------------

class BipartiteStackTest : public ::testing::TestWithParam<int> {};

TEST_P(BipartiteStackTest, InvariantsHoldOnMimic) {
  const int radius = GetParam();
  graphs::TemporalGraph g = tgsim::datasets::MakeMimicByName("DBLP", 0.05, 3);
  EgoGraphSampler sampler(&g, {.radius = radius, .neighbor_threshold = 5,
                               .time_window = 2});
  InitialNodeSampler initial(&g, 2);
  Rng rng(11);
  std::vector<EgoGraph> egos;
  for (const auto& c : initial.Sample(12, rng))
    egos.push_back(sampler.Sample(c, rng));
  BipartiteStack stack = BuildBipartiteStack(egos, radius);

  ASSERT_EQ(stack.radius(), radius);
  ASSERT_EQ(stack.layer_nodes.size(), static_cast<size_t>(radius) + 1);
  // Centers appear in S_0.
  ASSERT_EQ(stack.center_index.size(), egos.size());
  for (size_t e = 0; e < egos.size(); ++e) {
    EXPECT_TRUE(stack.layer_nodes[0][static_cast<size_t>(
                    stack.center_index[e])] == egos[e].center);
  }
  // S_{l+1} contains every node of S_l (self-message paths).
  for (int l = 0; l < radius; ++l) {
    std::set<std::pair<int, int>> next;
    for (const auto& node : stack.layer_nodes[static_cast<size_t>(l) + 1])
      next.insert({node.node, node.t});
    for (const auto& node : stack.layer_nodes[static_cast<size_t>(l)])
      EXPECT_TRUE(next.count({node.node, node.t}));
    // S_l is a prefix of S_{l+1}: node i of S_l is node i of S_{l+1}.
    const auto& here = stack.layer_nodes[static_cast<size_t>(l)];
    const auto& there = stack.layer_nodes[static_cast<size_t>(l) + 1];
    ASSERT_LE(here.size(), there.size());
    for (size_t i = 0; i < here.size(); ++i)
      EXPECT_TRUE(here[i] == there[i]) << "layer " << l << " node " << i;
  }
  // Edge indices are in range; every target has at least one in-edge
  // (its self-loop).
  for (int l = 0; l < radius; ++l) {
    const BipartiteLayer& layer = stack.layers[static_cast<size_t>(l)];
    std::set<int> targets;
    for (size_t i = 0; i < layer.num_edges(); ++i) {
      EXPECT_GE(layer.src[i], 0);
      EXPECT_LT(layer.src[i],
                static_cast<int>(stack.layer_nodes[static_cast<size_t>(l) + 1]
                                     .size()));
      EXPECT_GE(layer.dst[i], 0);
      EXPECT_LT(layer.dst[i],
                static_cast<int>(
                    stack.layer_nodes[static_cast<size_t>(l)].size()));
      targets.insert(layer.dst[i]);
    }
    EXPECT_EQ(targets.size(),
              stack.layer_nodes[static_cast<size_t>(l)].size());
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, BipartiteStackTest,
                         ::testing::Values(1, 2, 3));

TEST(BipartiteStackTest, DistinctTemporalNodesNeverShareAnIndex) {
  // (1, 0) and (0, 4000037) are distinct temporal nodes that a
  // `node * 4000037 + t` key maps to one value, merging two centers into
  // one S_0 row. The packed (node, t) key keeps them apart.
  EgoGraph a;
  a.center = {1, 0};
  a.nodes = {a.center};
  a.depth = {0};
  EgoGraph b;
  b.center = {0, 4000037};
  b.nodes = {b.center};
  b.depth = {0};
  BipartiteStack stack = BuildBipartiteStack({a, b}, 1);
  ASSERT_EQ(stack.layer_nodes[0].size(), 2u);
  EXPECT_EQ(stack.center_index, (std::vector<int>{0, 1}));
  EXPECT_TRUE(stack.layer_nodes[0][1] == b.center);
  EXPECT_EQ(stack.layer_nodes[1].size(), 2u);
}

// ---------------------------------------------------------------------------
// The flat-index sampler and stack against hash-map references.
//
// ReferenceSample and ReferenceStack are the hash-map implementations the
// library replaced, keyed on the packed (node, t) word so that no two
// temporal nodes alias. The library must reproduce them exactly: the same
// nodes in the same order, depths, edges, Rng draws, and the same stack.
// ---------------------------------------------------------------------------

EgoGraph ReferenceSample(const TemporalGraph& g, const EgoGraphConfig& cfg,
                         TemporalNodeRef center, Rng& rng) {
  // NodeSampling with a dedup set: `th` draws, first picks kept in order.
  auto sample_neighbors = [&](const std::vector<TemporalNeighbor>& all) {
    const int th = cfg.neighbor_threshold;
    if (th <= 0 || static_cast<int>(all.size()) <= th) return all;
    std::unordered_set<uint64_t> seen;
    std::vector<TemporalNeighbor> out;
    for (int i = 0; i < th; ++i) {
      const TemporalNeighbor& pick = all[static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(all.size())))];
      if (seen.insert(PackTemporalNode({pick.node, pick.t})).second)
        out.push_back(pick);
    }
    return out;
  };
  EgoGraph ego;
  ego.center = center;
  ego.nodes.push_back(center);
  ego.depth.push_back(0);
  std::unordered_map<uint64_t, int> index;
  index[PackTemporalNode(center)] = 0;
  std::vector<int> frontier = {0};
  for (int hop = 1; hop <= cfg.radius && !frontier.empty(); ++hop) {
    std::vector<int> next_frontier;
    for (int parent_idx : frontier) {
      TemporalNodeRef parent = ego.nodes[static_cast<size_t>(parent_idx)];
      for (const TemporalNeighbor& nb : sample_neighbors(
               g.TemporalNeighborhood(parent.node, center.t,
                                      cfg.time_window))) {
        TemporalNodeRef child{nb.node, nb.t};
        auto [it, inserted] =
            index.try_emplace(PackTemporalNode(child), ego.size());
        if (inserted) {
          ego.nodes.push_back(child);
          ego.depth.push_back(hop);
          next_frontier.push_back(it->second);
        }
        if (it->second != parent_idx)
          ego.edges.emplace_back(parent_idx, it->second);
      }
    }
    frontier = std::move(next_frontier);
  }
  std::sort(ego.edges.begin(), ego.edges.end());
  ego.edges.erase(std::unique(ego.edges.begin(), ego.edges.end()),
                  ego.edges.end());
  return ego;
}

BipartiteStack ReferenceStack(const std::vector<EgoGraph>& egos,
                              int radius) {
  BipartiteStack stack;
  stack.layer_nodes.resize(static_cast<size_t>(radius) + 1);
  stack.layers.resize(static_cast<size_t>(radius));
  std::vector<std::unordered_map<uint64_t, int>> index(
      static_cast<size_t>(radius) + 1);
  auto intern = [&](int layer, TemporalNodeRef node) {
    auto [it, inserted] = index[static_cast<size_t>(layer)].try_emplace(
        PackTemporalNode(node),
        static_cast<int>(stack.layer_nodes[static_cast<size_t>(layer)].size()));
    if (inserted) stack.layer_nodes[static_cast<size_t>(layer)].push_back(node);
    return it->second;
  };
  auto at = [&](int layer, TemporalNodeRef node) {
    return index[static_cast<size_t>(layer)].at(PackTemporalNode(node));
  };
  for (const EgoGraph& ego : egos)
    stack.center_index.push_back(intern(0, ego.center));
  for (int l = 1; l <= radius; ++l) {
    for (const TemporalNodeRef& node :
         stack.layer_nodes[static_cast<size_t>(l) - 1])
      intern(l, node);
    for (const EgoGraph& ego : egos)
      for (int i = 0; i < ego.size(); ++i)
        if (ego.depth[static_cast<size_t>(i)] == l)
          intern(l, ego.nodes[static_cast<size_t>(i)]);
  }
  std::vector<std::vector<std::pair<int, int>>> edges(
      static_cast<size_t>(radius));
  for (int l = 0; l < radius; ++l) {
    const size_t li = static_cast<size_t>(l);
    for (const TemporalNodeRef& node : stack.layer_nodes[li])
      edges[li].emplace_back(at(l + 1, node), at(l, node));
  }
  for (const EgoGraph& ego : egos) {
    for (auto [pi, ci] : ego.edges) {
      const int d = ego.depth[static_cast<size_t>(pi)];
      if (ego.depth[static_cast<size_t>(ci)] != d + 1 || d >= radius) continue;
      edges[static_cast<size_t>(d)].emplace_back(
          at(d + 1, ego.nodes[static_cast<size_t>(ci)]),
          at(d, ego.nodes[static_cast<size_t>(pi)]));
    }
  }
  for (int l = 0; l < radius; ++l) {
    auto& e = edges[static_cast<size_t>(l)];
    std::sort(e.begin(), e.end());
    e.erase(std::unique(e.begin(), e.end()), e.end());
    for (auto [src, dst] : e) {
      stack.layers[static_cast<size_t>(l)].src.push_back(src);
      stack.layers[static_cast<size_t>(l)].dst.push_back(dst);
    }
  }
  return stack;
}

void ExpectSameEgo(const EgoGraph& want, const EgoGraph& got) {
  EXPECT_TRUE(want.center == got.center);
  EXPECT_TRUE(want.nodes == got.nodes);
  EXPECT_EQ(want.depth, got.depth);
  EXPECT_EQ(want.edges, got.edges);
}

void ExpectSameStack(const BipartiteStack& want, const BipartiteStack& got) {
  EXPECT_TRUE(want.layer_nodes == got.layer_nodes);
  EXPECT_EQ(want.center_index, got.center_index);
  ASSERT_EQ(want.layers.size(), got.layers.size());
  for (size_t l = 0; l < want.layers.size(); ++l) {
    EXPECT_EQ(want.layers[l].src, got.layers[l].src) << "layer " << l;
    EXPECT_EQ(want.layers[l].dst, got.layers[l].dst) << "layer " << l;
  }
}

/// Every source node of timestamp t, as a generation chunk batches them.
std::vector<TemporalNodeRef> SourcesAt(const TemporalGraph& g, Timestamp t) {
  std::set<NodeId> sources;
  for (const TemporalEdge& e : g.EdgesAt(t)) sources.insert(e.u);
  std::vector<TemporalNodeRef> out;
  for (NodeId u : sources) out.push_back({u, t});
  return out;
}

TEST(FlatSamplerTest, MatchesHashMapReferenceExactly) {
  const std::vector<std::pair<const char*, TemporalGraph>> graphs = {
      {"hub", MakeDenseHub()},
      {"DBLP", tgsim::datasets::MakeMimicByName("DBLP", 0.05, 3)},
      {"MSG", tgsim::datasets::MakeMimicByName("MSG", 0.05, 4)}};
  int compared = 0;
  for (const auto& [name, g] : graphs) {
    const InitialNodeSampler initial(&g, /*time_window=*/2);
    for (int radius = 1; radius <= 3; ++radius) {
      for (int th : {0, 1, 5, 20}) {
        for (int tw : {0, 1, 2}) {
          SCOPED_TRACE(::testing::Message()
                       << name << " radius=" << radius << " th=" << th
                       << " tw=" << tw);
          const EgoGraphConfig cfg{
              .radius = radius, .neighbor_threshold = th, .time_window = tw};
          const EgoGraphSampler sampler(&g, cfg);
          // One scratch and one batch of EgoGraphs serve every batch, as
          // in generation: each ego is refilled in place.
          EgoSamplerScratch scratch;
          std::vector<EgoGraph> batch;
          Rng rng_ref(100 + radius * 16 + th + tw);
          Rng rng(100 + radius * 16 + th + tw);
          Rng pick_centers(7);
          std::vector<std::vector<TemporalNodeRef>> batches = {
              initial.Sample(24, pick_centers),  // Mixed timestamps.
              SourcesAt(g, g.num_timestamps() / 2),
              SourcesAt(g, 0),
              initial.Sample(5, pick_centers)};
          for (const auto& centers : batches) {
            std::vector<EgoGraph> want;
            for (const TemporalNodeRef& c : centers)
              want.push_back(ReferenceSample(g, cfg, c, rng_ref));
            batch.resize(centers.size());
            for (size_t i = 0; i < centers.size(); ++i)
              sampler.SampleInto(centers[i], rng, scratch, batch[i]);
            for (size_t i = 0; i < centers.size(); ++i)
              ExpectSameEgo(want[i], batch[i]);
            EXPECT_EQ(rng_ref.UniformInt(int64_t{1} << 62),
                      rng.UniformInt(int64_t{1} << 62));
            if (centers.empty()) continue;
            ExpectSameStack(ReferenceStack(want, radius),
                            BuildBipartiteStack(batch, radius));
            ++compared;
          }
          // The by-value wrapper draws the same.
          Rng a(5), b(5);
          const TemporalNodeRef c = batches[0][0];
          ExpectSameEgo(ReferenceSample(g, cfg, c, a), sampler.Sample(c, b));
          EXPECT_EQ(a.UniformInt(int64_t{1} << 62),
                    b.UniformInt(int64_t{1} << 62));
        }
      }
    }
  }
  EXPECT_EQ(compared, 3 * 3 * 4 * 3 * 4);
}

TEST(FlatSamplerTest, SmallEgoAfterHubEgoInOneScratch) {
  // A hub ego fills the index with ten nodes; a small ego sampled next
  // into the same EgoGraph and scratch must keep none of them, and the hub
  // sampled again must find none of its own stale entries.
  TemporalGraph g = MakeDenseHub();
  const EgoGraphConfig cfg{
      .radius = 2, .neighbor_threshold = 0, .time_window = 0};
  const EgoGraphSampler sampler(&g, cfg);
  EgoSamplerScratch scratch;
  EgoGraph ego;
  Rng rng(1), rng_ref(1);
  for (TemporalNodeRef center :
       {TemporalNodeRef{0, 1}, TemporalNodeRef{4, 2}, TemporalNodeRef{0, 1},
        TemporalNodeRef{2, 0}}) {
    sampler.SampleInto(center, rng, scratch, ego);
    ExpectSameEgo(ReferenceSample(g, cfg, center, rng_ref), ego);
    EXPECT_EQ(ego.size(), center.node == 0 ? 10 : 2);
  }
}

}  // namespace
}  // namespace tgsim::graphs
