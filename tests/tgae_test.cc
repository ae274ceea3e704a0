#include "core/tgae.h"

#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "baselines/state_io.h"
#include "datasets/synthetic.h"
#include "eval/registry.h"
#include "gtest/gtest.h"
#include "metrics/motifs.h"
#include "metrics/temporal_scores.h"
#include "serialize/serialization.h"

namespace tgsim::core {
namespace {

graphs::TemporalGraph Observed() {
  static const graphs::TemporalGraph* kGraph = new graphs::TemporalGraph(
      datasets::MakeMimicByName("DBLP", 0.06, 31));
  return *kGraph;
}

TgaeConfig FastConfig() {
  TgaeConfig cfg;
  cfg.epochs = 6;
  cfg.batch_centers = 12;
  return cfg;
}

TEST(TgaeConfigTest, VariantsMatchPaperTableVII) {
  EXPECT_EQ(TgaeConfig::ForVariant(TgaeVariant::kFull).display_name, "TGAE");
  TgaeConfig g = TgaeConfig::ForVariant(TgaeVariant::kRandomWalk);
  EXPECT_EQ(g.display_name, "TGAE-g");
  EXPECT_EQ(g.neighbor_threshold, 1);
  TgaeConfig t = TgaeConfig::ForVariant(TgaeVariant::kNoTruncation);
  EXPECT_EQ(t.display_name, "TGAE-t");
  EXPECT_EQ(t.neighbor_threshold, 0);
  TgaeConfig n = TgaeConfig::ForVariant(TgaeVariant::kUniformSampling);
  EXPECT_EQ(n.display_name, "TGAE-n");
  EXPECT_FALSE(n.degree_weighted_sampling);
  TgaeConfig p = TgaeConfig::ForVariant(TgaeVariant::kNonProbabilistic);
  EXPECT_EQ(p.display_name, "TGAE-p");
  EXPECT_FALSE(p.probabilistic);
}

TEST(TgaeTest, GenerateMatchesObservedShape) {
  graphs::TemporalGraph observed = Observed();
  TgaeGenerator gen(FastConfig());
  Rng rng(1);
  gen.Fit(observed, rng);
  graphs::TemporalGraph out = gen.Generate(rng);
  EXPECT_EQ(out.num_nodes(), observed.num_nodes());
  EXPECT_EQ(out.num_timestamps(), observed.num_timestamps());
  EXPECT_EQ(out.num_edges(), observed.num_edges());
}

TEST(TgaeTest, PerTimestampEdgeCountsAreExact) {
  // Generation allocates each temporal node's observed out-degree, so the
  // per-snapshot edge counts must match exactly (Section IV-G).
  graphs::TemporalGraph observed = Observed();
  TgaeGenerator gen(FastConfig());
  Rng rng(2);
  gen.Fit(observed, rng);
  graphs::TemporalGraph out = gen.Generate(rng);
  EXPECT_EQ(out.EdgesPerTimestamp(), observed.EdgesPerTimestamp());
}

TEST(TgaeTest, TrainingLossDecreasesWithEpochs) {
  graphs::TemporalGraph observed = Observed();
  TgaeConfig one = FastConfig();
  one.epochs = 1;
  TgaeGenerator short_run(one);
  Rng r1(3);
  short_run.Fit(observed, r1);

  TgaeConfig many = FastConfig();
  many.epochs = 40;
  TgaeGenerator long_run(many);
  Rng r2(3);
  long_run.Fit(observed, r2);
  EXPECT_LT(long_run.last_epoch_loss(), short_run.last_epoch_loss());
}

TEST(TgaeTest, LossIsFiniteForAllVariants) {
  graphs::TemporalGraph observed = Observed();
  for (TgaeVariant v :
       {TgaeVariant::kFull, TgaeVariant::kRandomWalk,
        TgaeVariant::kNoTruncation, TgaeVariant::kUniformSampling,
        TgaeVariant::kNonProbabilistic}) {
    TgaeConfig cfg = TgaeConfig::ForVariant(v);
    cfg.epochs = 3;
    cfg.batch_centers = 8;
    TgaeGenerator gen(cfg);
    Rng rng(4);
    gen.Fit(observed, rng);
    EXPECT_TRUE(std::isfinite(gen.last_epoch_loss()))
        << cfg.display_name;
    graphs::TemporalGraph out = gen.Generate(rng);
    EXPECT_EQ(out.num_edges(), observed.num_edges()) << cfg.display_name;
  }
}

TEST(TgaeTest, UntiedDecoderAlsoTrains) {
  graphs::TemporalGraph observed = Observed();
  TgaeConfig cfg = FastConfig();
  cfg.tie_decoder = false;
  TgaeGenerator gen(cfg);
  Rng rng(5);
  gen.Fit(observed, rng);
  EXPECT_TRUE(std::isfinite(gen.last_epoch_loss()));
  EXPECT_EQ(gen.Generate(rng).num_edges(), observed.num_edges());
}

TEST(TgaeTest, TiedDecoderRequiresMatchingDims) {
  TgaeConfig cfg = FastConfig();
  cfg.hidden_dim = 16;
  cfg.embedding_dim = 32;
  cfg.tie_decoder = true;
  TgaeGenerator gen(cfg);
  graphs::TemporalGraph observed = Observed();
  Rng rng(6);
  EXPECT_DEATH(gen.Fit(observed, rng), "CHECK failed");
}

TEST(TgaeTest, DeterministicForSeed) {
  graphs::TemporalGraph observed = Observed();
  auto run = [&](uint64_t seed) {
    TgaeGenerator gen(FastConfig());
    Rng rng(seed);
    gen.Fit(observed, rng);
    return gen.Generate(rng);
  };
  graphs::TemporalGraph a = run(9);
  graphs::TemporalGraph b = run(9);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (size_t i = 0; i < a.edges().size(); ++i)
    EXPECT_TRUE(a.edges()[i] == b.edges()[i]);
}

TEST(TgaeTest, GeneratedEdgesPreferObservedSupport) {
  // With the neighborhood-restricted categorical (Section IV-G), most
  // generated edges connect pairs that interact within the window in the
  // observed graph.
  graphs::TemporalGraph observed = Observed();
  TgaeGenerator gen(FastConfig());
  Rng rng(10);
  gen.Fit(observed, rng);
  graphs::TemporalGraph out = gen.Generate(rng);
  int64_t in_support = 0;
  for (const auto& e : out.edges()) {
    for (const auto& nb : observed.OutNeighborhood(
             e.u, e.t, gen.config().generation_time_window)) {
      if (nb.node == e.v) {
        ++in_support;
        break;
      }
    }
  }
  EXPECT_GT(in_support, out.num_edges() * 9 / 10);
}

TEST(TgaeTest, SparseDecoderTrainsAndGenerates) {
  graphs::TemporalGraph observed = Observed();
  TgaeConfig cfg = FastConfig();
  cfg.sparse_decoder = true;
  cfg.negative_samples = 32;
  TgaeGenerator gen(cfg);
  Rng rng(14);
  gen.Fit(observed, rng);
  EXPECT_TRUE(std::isfinite(gen.last_epoch_loss()));
  graphs::TemporalGraph out = gen.Generate(rng);
  EXPECT_EQ(out.num_edges(), observed.num_edges());
  EXPECT_EQ(out.EdgesPerTimestamp(), observed.EdgesPerTimestamp());
}

TEST(TgaeTest, SparseAndDenseGenerationDrawIdenticalEdges) {
  // sparse_decoder chooses the training loss only: generation scores each
  // row's support columns the same way on every preset (kernels::Dot rows
  // of the tied table, DotPanel4 lanes of the untied decode panel), so with
  // the same weights and the same seed the drawn edge lists are identical.
  graphs::TemporalGraph observed = Observed();
  for (bool tied : {true, false}) {
    SCOPED_TRACE(tied ? "tie_decoder=true" : "tie_decoder=false");
    TgaeConfig dense_cfg = FastConfig();
    dense_cfg.tie_decoder = tied;
    TgaeGenerator dense(dense_cfg);
    Rng rd(17);
    dense.Fit(observed, rd);
    std::stringstream state;
    ASSERT_TRUE(dense.SaveState(state).ok());

    // The sparse decoder has the same parameter shapes, so it loads the
    // dense model's fitted state (weights and support) as is.
    TgaeConfig sparse_cfg = dense_cfg;
    sparse_cfg.sparse_decoder = true;
    TgaeGenerator sparse(sparse_cfg);
    Status loaded = sparse.LoadState(state);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();

    Rng g1(99);
    Rng g2(99);
    graphs::TemporalGraph a = dense.Generate(g1);
    graphs::TemporalGraph b = sparse.Generate(g2);
    ASSERT_EQ(a.num_edges(), b.num_edges());
    for (size_t i = 0; i < a.edges().size(); ++i)
      EXPECT_TRUE(a.edges()[i] == b.edges()[i]) << "edge " << i;
  }
}

TEST(TgaeTest, UntiedDecoderEqualToTiedTableDrawsIdenticalEdges) {
  // Generation reads a tied support logit as kernels::Dot against an
  // embedding-table row and an untied one as a DotPanel4 lane of the
  // decode panel. An untied model whose W_dec is the tied model's table
  // transposed has the same logits, so the two must draw the same edges:
  // on the support, and for `loop_node` (only self-loops within the t = 0
  // window) through the n-wide empty-support fallback. A wide window with
  // no ring discount makes supports outgrow budgets, so the draws depend
  // on every support logit.
  TgaeConfig tied_cfg = FastConfig();
  tied_cfg.generation_time_window = 2;
  tied_cfg.generation_ring_weight = 1.0;
  const graphs::TemporalGraph base = Observed();
  const graphs::NodeId loop_node = base.edges().front().u;
  graphs::TemporalGraph observed(base.num_nodes(), base.num_timestamps());
  for (const auto& e : base.edges())
    if (e.u != loop_node || e.t > 2) observed.AddEdge(e.u, e.v, e.t);
  observed.AddEdge(loop_node, loop_node, 0);
  observed.AddEdge(loop_node, loop_node, 0);
  observed.Finalize();

  TgaeGenerator tied(tied_cfg);
  Rng rng(23);
  tied.Fit(observed, rng);
  std::stringstream tied_state;
  ASSERT_TRUE(tied.SaveState(tied_state).ok());

  // Rewrite the state with W_dec = table^T inserted before b_dec: the tied
  // parameters are [node table, ..., b_dec], the untied ones
  // [node table, ..., W_dec, b_dec].
  Result<serialize::ArchiveReader> parsed =
      serialize::ArchiveReader::Parse(tied_state);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const serialize::ArchiveReader& reader = parsed.value();
  Result<int64_t> count = reader.GetInt("params", "count");
  ASSERT_TRUE(count.ok());
  std::vector<nn::Var> params;
  for (int64_t i = 0; i < count.value(); ++i) {
    std::string name = "p";  // WriteParams field names: p0, p1, ...
    name += std::to_string(i);
    Result<nn::Tensor> p = reader.GetTensor("params", name);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    params.push_back(nn::Var::Constant(std::move(p).value()));
  }
  params.insert(params.end() - 1,
                nn::Var::Constant(params.front().value().Transpose()));
  baselines::ObservedShape shape;
  shape.CaptureFrom(observed);
  std::stringstream untied_state;
  serialize::ArchiveWriter writer(untied_state);
  baselines::WriteShape(writer, shape);
  baselines::WriteSupportGraph(writer, "support", observed);
  writer.BeginSection("params");
  serialize::WriteParams(writer, params);
  ASSERT_TRUE(writer.Finish().ok());

  TgaeConfig untied_cfg = tied_cfg;
  untied_cfg.tie_decoder = false;
  TgaeGenerator untied(untied_cfg);
  Status loaded = untied.LoadState(untied_state);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();

  Rng g1(5);
  Rng g2(5);
  graphs::TemporalGraph a = tied.Generate(g1);
  graphs::TemporalGraph b = untied.Generate(g2);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (size_t i = 0; i < a.edges().size(); ++i)
    EXPECT_TRUE(a.edges()[i] == b.edges()[i]) << "edge " << i;
  int fallback_edges = 0;
  for (const auto& e : a.edges())
    if (e.u == loop_node && e.t == 0) ++fallback_edges;
  EXPECT_EQ(fallback_edges, 2);
}

TEST(TgaeTest, NextUntakenNodeScansPastTakenNodes) {
  std::vector<bool> taken = {true, false, true, true};
  EXPECT_EQ(NextUntakenNode(taken, 0), 1);
  EXPECT_EQ(NextUntakenNode(taken, 1), 1);
  EXPECT_EQ(NextUntakenNode(taken, 2), 1);  // Wraps past the end.
  EXPECT_EQ(NextUntakenNode(taken, 3), 1);
  std::vector<bool> all_taken = {true, true};
  EXPECT_EQ(NextUntakenNode(all_taken, 1), 1);  // Degenerate: start.
}

TEST(TgaeTest, EmptySupportFallbackEmitsNoSelfLoopsOrDuplicates) {
  // Node 0's only observed interactions are self-loops, so its generation
  // support is empty and all three of its edges go through the full-row
  // fallback. The old single-step collision nudge could land on a taken
  // node — including node 0 itself — emitting self-loops or duplicate
  // destinations; the fallback must produce distinct non-self targets.
  graphs::TemporalGraph g(5, 2);
  for (int r = 0; r < 3; ++r) g.AddEdge(0, 0, 0);
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 3, 1);
  g.AddEdge(3, 4, 1);
  g.Finalize();
  for (bool sparse : {false, true}) {
    TgaeConfig cfg;
    cfg.epochs = 2;
    cfg.batch_centers = 4;
    cfg.sparse_decoder = sparse;
    TgaeGenerator gen(cfg);
    Rng rng(3);
    gen.Fit(g, rng);
    graphs::TemporalGraph out = gen.Generate(rng);
    std::set<graphs::NodeId> fallback_dests;
    for (const auto& e : out.edges()) {
      EXPECT_NE(e.u, e.v) << "self-loop (sparse=" << sparse << ")";
      if (e.u == 0 && e.t == 0) {
        EXPECT_TRUE(fallback_dests.insert(e.v).second)
            << "duplicate destination " << e.v << " (sparse=" << sparse
            << ")";
      }
    }
    EXPECT_EQ(fallback_dests.size(), 3u) << "sparse=" << sparse;
  }
}

TEST(TgaeTest, PathSumParentsFallsBackToShallowerParent) {
  // Hand-built ego graph: node 1 is strictly layered under the center,
  // node 2 extends node 1's path, node 3 is reachable only through a
  // depth-skipping edge from the center (depth 0 -> depth 2), and node 4
  // only through a same-depth edge. Alg. 2 path-sum semantics: 3 anchors
  // to the shallower parent (the old first-parent tree silently dropped
  // its path to "own z only"); 4 has no shallower parent and stays -1;
  // same-depth edges never become parents, so chains cannot cycle.
  graphs::EgoGraph ego;
  ego.center = {0, 0};
  ego.nodes = {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}};
  ego.depth = {0, 1, 2, 2, 2};
  ego.edges = {{0, 1}, {1, 2}, {0, 3}, {3, 4}};
  std::vector<int> parent = PathSumParents(ego);
  ASSERT_EQ(parent.size(), 5u);
  EXPECT_EQ(parent[0], -1);  // Center.
  EXPECT_EQ(parent[1], 0);   // Strictly layered.
  EXPECT_EQ(parent[2], 1);   // Strictly layered chain.
  EXPECT_EQ(parent[3], 0);   // Shallower-depth fallback.
  EXPECT_EQ(parent[4], -1);  // Same-depth edge is never a parent.
}

TEST(TgaeIntegrationTest, BeatsErdosRenyiOnStructureAndMotifs) {
  graphs::TemporalGraph observed = Observed();
  TgaeConfig cfg;
  cfg.epochs = 25;
  TgaeGenerator tgae(cfg);
  Rng r1(11);
  tgae.Fit(observed, r1);
  graphs::TemporalGraph tgae_out = tgae.Generate(r1);

  auto er = std::move(eval::MakeGenerator("E-R")).value();
  Rng r2(11);
  er->Fit(observed, r2);
  graphs::TemporalGraph er_out = er->Generate(r2);

  auto tgae_scores = metrics::ScoreAllMetrics(observed, tgae_out);
  auto er_scores = metrics::ScoreAllMetrics(observed, er_out);
  int tgae_wins = 0;
  for (size_t i = 0; i < tgae_scores.size(); ++i)
    tgae_wins += tgae_scores[i].med <= er_scores[i].med;
  EXPECT_GE(tgae_wins, 5) << "TGAE should beat E-R on most metrics";

  double tgae_mmd = metrics::MotifMmd(observed, tgae_out, 4, 1.0, 500000);
  double er_mmd = metrics::MotifMmd(observed, er_out, 4, 1.0, 500000);
  EXPECT_LT(tgae_mmd, er_mmd);
}

}  // namespace
}  // namespace tgsim::core
