#include "core/tgat_encoder.h"

#include <cstring>
#include <numeric>
#include <vector>

#include "datasets/synthetic.h"
#include "graph/bipartite.h"
#include "gtest/gtest.h"
#include "metrics/degree_mmd.h"
#include "nn/gradcheck.h"
#include "parallel/thread_pool.h"

namespace tgsim::core {
namespace {

/// Builds a small bipartite stack from a DBLP-like mimic.
graphs::BipartiteStack MakeStack(int radius, int batch,
                                 const graphs::TemporalGraph& g, Rng& rng) {
  graphs::EgoGraphSampler sampler(
      &g, {.radius = radius, .neighbor_threshold = 5, .time_window = 2});
  graphs::InitialNodeSampler initial(&g, 2);
  std::vector<graphs::EgoGraph> egos;
  for (const auto& c : initial.Sample(batch, rng))
    egos.push_back(sampler.Sample(c, rng));
  return graphs::BuildBipartiteStack(egos, radius);
}

TEST(TgatLayerTest, OutputShapeMatchesTargets) {
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.05, 13);
  Rng rng(1);
  graphs::BipartiteStack stack = MakeStack(2, 8, g, rng);
  TgatLayer layer(rng, 16, 24, 3);
  nn::Var src = nn::Var::Constant(nn::Tensor::Randn(
      rng, static_cast<int>(stack.layer_nodes[2].size()), 16));
  nn::Var out = layer.Forward(
      src, stack.layers[1], static_cast<int>(stack.layer_nodes[1].size()));
  EXPECT_EQ(out.rows(), static_cast<int>(stack.layer_nodes[1].size()));
  EXPECT_EQ(out.cols(), 24);
}

TEST(TgatLayerTest, GradCheckThroughAttention) {
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.04, 13);
  Rng rng(2);
  graphs::BipartiteStack stack = MakeStack(1, 4, g, rng);
  TgatLayer layer(rng, 6, 6, 2);
  nn::Tensor src = nn::Tensor::Randn(
      rng, static_cast<int>(stack.layer_nodes[1].size()), 6, 0.5);
  nn::GradCheckResult res = nn::CheckGradients(layer.params(), [&]() {
    return nn::Sum(nn::Square(
        layer.Forward(nn::Var::Constant(src), stack.layers[0],
                      static_cast<int>(stack.layer_nodes[0].size()))));
  });
  EXPECT_TRUE(res.ok) << res.max_rel_error;
}

bool BitIdentical(const nn::Tensor& a, const nn::Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(nn::Scalar)) == 0;
}

/// The per-head attention composition with the query fetched through an
/// identity row gather, `GatherRows(proj, iota(n_dst))`, spelled out from a
/// TgatLayer's parameters (w_0, a_0, ..., w_{H-1}, a_{H-1}, w_out). Its
/// backward gives each projection row its target-gather terms before its
/// source-gather terms; the layer must keep that order.
nn::Var IdentityQueryComposition(const std::vector<nn::Var>& params,
                                 int num_heads, const nn::Var& src,
                                 const graphs::BipartiteLayer& edges,
                                 int n_dst) {
  std::vector<nn::Var> w_head, a_head;
  for (int h = 0; h < num_heads; ++h) {
    w_head.push_back(params[static_cast<size_t>(2 * h)]);
    a_head.push_back(params[static_cast<size_t>(2 * h + 1)]);
  }
  const nn::Var& w_out = params[static_cast<size_t>(2 * num_heads)];
  const int head_dim = w_head[0].cols();
  nn::Var proj_all = num_heads == 1 ? nn::MatMul(src, w_head[0])
                                    : nn::MatMul(src, nn::ConcatCols(w_head));
  std::vector<int> identity(static_cast<size_t>(n_dst));
  std::iota(identity.begin(), identity.end(), 0);
  std::vector<nn::Var> heads;
  for (int h = 0; h < num_heads; ++h) {
    nn::Var proj = num_heads == 1 ? proj_all
                                  : nn::SliceCols(proj_all, h * head_dim,
                                                  (h + 1) * head_dim);
    nn::Var q_dst = nn::GatherRows(proj, identity);
    nn::Var hs = nn::GatherRows(proj, edges.src);
    nn::Var hd = nn::GatherRows(q_dst, edges.dst);
    nn::Var scores = nn::LeakyRelu(
        nn::MatMul(nn::ConcatCols({hs, hd}), a_head[static_cast<size_t>(h)]),
        0.2);
    nn::Var alpha = nn::SegmentSoftmax(scores, edges.dst, n_dst);
    nn::Var agg =
        nn::SegmentSum(nn::MulColBroadcast(hs, alpha), edges.dst, n_dst);
    heads.push_back(nn::LeakyRelu(agg, 0.2));
  }
  nn::Var cat = heads.size() == 1 ? heads[0] : nn::ConcatCols(heads);
  return nn::MatMul(cat, w_out);
}

TEST(TgatLayerTest, MatchesIdentityQueryGatherCompositionBitForBit) {
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.05, 13);
  struct GlobalThreadsGuard {
    ~GlobalThreadsGuard() {
      parallel::ThreadPool::SetGlobalThreads(
          parallel::ThreadPool::DefaultNumThreads());
    }
  } guard;
  for (int num_heads : {1, 2}) {
    Rng rng(6);
    graphs::BipartiteStack stack = MakeStack(2, 32, g, rng);
    const graphs::BipartiteLayer& edges = stack.layers[1];
    const int n_src = static_cast<int>(stack.layer_nodes[2].size());
    const int n_dst = static_cast<int>(stack.layer_nodes[1].size());
    TgatLayer layer(rng, 16, 16, num_heads);
    nn::Var src = nn::Var::Param(nn::Tensor::Randn(rng, n_src, 16));
    const nn::Var out_weights =
        nn::Var::Constant(nn::Tensor::Randn(rng, n_dst, 16));
    // Output, then every parameter gradient, then the input gradient.
    auto run = [&](auto forward) {
      for (nn::Var& p : layer.params()) p.ZeroGrad();
      src.ZeroGrad();
      nn::Var out = forward();
      nn::Backward(nn::Sum(nn::Mul(out, out_weights)));
      std::vector<nn::Tensor> got = {out.value()};
      for (const nn::Var& p : layer.params()) got.push_back(p.grad());
      got.push_back(src.grad());
      return got;
    };
    for (int threads : {1, 2, 8}) {
      parallel::ThreadPool::SetGlobalThreads(threads);
      const std::vector<nn::Tensor> want = run([&] {
        return IdentityQueryComposition(layer.params(), num_heads, src, edges,
                                        n_dst);
      });
      const std::vector<nn::Tensor> got =
          run([&] { return layer.Forward(src, edges, n_dst); });
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i)
        EXPECT_TRUE(BitIdentical(want[i], got[i]))
            << "tensor " << i << " (0 = output, last = input gradient), "
            << num_heads << " heads, " << threads << " threads";
    }
  }
}

TEST(TgatEncoderTest, ProducesCenterFeatures) {
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.05, 13);
  Rng rng(3);
  for (int radius : {1, 2, 3}) {
    graphs::BipartiteStack stack = MakeStack(radius, 6, g, rng);
    TgatEncoder encoder(rng, 12, 20, 2, radius);
    nn::Var feats = nn::Var::Constant(nn::Tensor::Randn(
        rng,
        static_cast<int>(
            stack.layer_nodes[static_cast<size_t>(radius)].size()),
        12));
    nn::Var h = encoder.Forward(stack, feats);
    EXPECT_EQ(h.rows(), static_cast<int>(stack.layer_nodes[0].size()));
    EXPECT_EQ(h.cols(), 20);
    EXPECT_TRUE(std::isfinite(h.value().MaxAbs()));
  }
}

TEST(TgatEncoderTest, CenterFeatureDependsOnPeriphery) {
  // Zero the periphery features of one ego: its center representation must
  // change (messages flow inward).
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.05, 13);
  Rng rng(4);
  graphs::BipartiteStack stack = MakeStack(2, 6, g, rng);
  TgatEncoder encoder(rng, 8, 8, 2, 2);
  int n_src = static_cast<int>(stack.layer_nodes[2].size());
  nn::Tensor base = nn::Tensor::Randn(rng, n_src, 8);
  nn::Var h1 = encoder.Forward(stack, nn::Var::Constant(base));
  nn::Tensor perturbed = base;
  for (int c = 0; c < 8; ++c) perturbed.at(n_src - 1, c) += 3.0;
  nn::Var h2 = encoder.Forward(stack, nn::Var::Constant(perturbed));
  EXPECT_GT((h1.value() - h2.value()).MaxAbs(), 1e-9);
}

TEST(TgatEncoderTest, ParamCountScalesWithRadius) {
  Rng rng(5);
  TgatEncoder e1(rng, 8, 8, 2, 1);
  TgatEncoder e2(rng, 8, 8, 2, 2);
  EXPECT_GT(e2.NumParams(), e1.NumParams());
  EXPECT_EQ(e1.radius(), 1);
  EXPECT_EQ(e2.radius(), 2);
}

// ---------------------------------------------------------------------------
// Degree-distribution MMD (extension metric).
// ---------------------------------------------------------------------------

TEST(DegreeMmdTest, HistogramSumsToOne) {
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.05, 13);
  std::vector<double> h = metrics::DegreeHistogram(
      g.SnapshotUpTo(g.num_timestamps() - 1), 32);
  double sum = 0.0;
  for (double x : h) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(DegreeMmdTest, TailFoldsIntoLastBucket) {
  // A star hub of degree 50 with max_degree 8: hub mass lands in bucket 8.
  std::vector<std::pair<graphs::NodeId, graphs::NodeId>> edges;
  for (int v = 1; v <= 50; ++v) edges.emplace_back(0, v);
  graphs::StaticGraph star = graphs::StaticGraph::FromEdgeList(51, edges);
  std::vector<double> h = metrics::DegreeHistogram(star, 8);
  EXPECT_NEAR(h[8], 1.0 / 51.0, 1e-9);
  EXPECT_NEAR(h[1], 50.0 / 51.0, 1e-9);
}

TEST(DegreeMmdTest, SelfComparisonIsZero) {
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.05, 13);
  EXPECT_NEAR(metrics::DegreeMmd(g, g), 0.0, 1e-12);
}

TEST(DegreeMmdTest, DetectsDegreeShift) {
  graphs::TemporalGraph a = datasets::MakeMimicByName("DBLP", 0.05, 13);
  // A uniform random graph with the same shape has a flatter profile.
  datasets::ScalabilityConfig cfg{a.num_nodes(), a.num_timestamps(), 0.005};
  graphs::TemporalGraph b = datasets::MakeScalabilityGraph(cfg, 5);
  EXPECT_GT(metrics::DegreeMmd(a, b), 1e-4);
}

}  // namespace
}  // namespace tgsim::core
