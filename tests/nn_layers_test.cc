#include "nn/layers.h"

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/gradcheck.h"
#include "nn/optim.h"

namespace tgsim::nn {
namespace {

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear layer(rng, 4, 3);
  Var x = Var::Constant(Tensor::Ones(5, 4));
  Var y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
  EXPECT_EQ(layer.params().size(), 2u);
  EXPECT_EQ(layer.NumParams(), 4 * 3 + 3);
}

TEST(LinearTest, NoBiasVariant) {
  Rng rng(2);
  Linear layer(rng, 4, 3, /*bias=*/false);
  EXPECT_EQ(layer.params().size(), 1u);
}

TEST(LinearTest, GradCheckThroughLayer) {
  Rng rng(3);
  Linear layer(rng, 3, 2);
  Tensor x = Tensor::Randn(rng, 4, 3);
  GradCheckResult res = CheckGradients(layer.params(), [&]() {
    return Sum(Square(layer.Forward(Var::Constant(x))));
  });
  EXPECT_TRUE(res.ok) << res.max_rel_error;
}

TEST(MlpTest, OutputShapeAndParamCount) {
  Rng rng(4);
  Mlp mlp(rng, {8, 16, 4});
  EXPECT_EQ(mlp.out_features(), 4);
  Var y = mlp.Forward(Var::Constant(Tensor::Ones(2, 8)));
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 4);
  EXPECT_EQ(mlp.NumParams(), 8 * 16 + 16 + 16 * 4 + 4);
}

TEST(MlpTest, GradCheckDeepStack) {
  Rng rng(5);
  Mlp mlp(rng, {3, 5, 4, 2}, Activation::kTanh);
  Tensor x = Tensor::Randn(rng, 3, 3);
  GradCheckResult res = CheckGradients(mlp.params(), [&]() {
    return Mean(Square(mlp.Forward(Var::Constant(x))));
  });
  EXPECT_TRUE(res.ok) << res.max_rel_error;
}

TEST(MlpTest, FinalActivationBoundsOutput) {
  Rng rng(6);
  Mlp mlp(rng, {2, 4, 3}, Activation::kSigmoid, /*final_activation=*/true);
  Var y = mlp.Forward(Var::Constant(Tensor::Randn(rng, 10, 2, 5.0)));
  for (int64_t i = 0; i < y.value().size(); ++i) {
    EXPECT_GE(y.value().data()[i], 0.0);
    EXPECT_LE(y.value().data()[i], 1.0);
  }
}

TEST(ActivationTest, AllVariantsEvaluate) {
  Rng rng(7);
  Var x = Var::Constant(Tensor::Randn(rng, 2, 2));
  for (Activation a :
       {Activation::kRelu, Activation::kTanh, Activation::kSigmoid,
        Activation::kLeakyRelu, Activation::kIdentity}) {
    Var y = Activate(x, a);
    EXPECT_EQ(y.rows(), 2);
  }
}

TEST(EmbeddingTest, LookupReturnsTableRows) {
  Rng rng(8);
  Embedding emb(rng, 10, 4);
  Var y = emb.Forward({3, 3, 7});
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_DOUBLE_EQ(y.value().at(0, c), y.value().at(1, c));
    EXPECT_DOUBLE_EQ(y.value().at(0, c), emb.table().value().at(3, c));
  }
}

TEST(EmbeddingTest, GradFlowsOnlyToLookedUpRows) {
  Rng rng(9);
  Embedding emb(rng, 5, 3);
  Var loss = Sum(Square(emb.Forward({1})));
  Backward(loss);
  const Tensor& g = emb.params()[0].grad();
  for (int c = 0; c < 3; ++c) {
    EXPECT_NE(g.at(1, c), 0.0);
    EXPECT_DOUBLE_EQ(g.at(0, c), 0.0);
    EXPECT_DOUBLE_EQ(g.at(4, c), 0.0);
  }
}

TEST(GruCellTest, StateShapeAndGradCheck) {
  Rng rng(10);
  GruCell gru(rng, 3, 4);
  Var h = gru.InitialState(2);
  EXPECT_EQ(h.rows(), 2);
  EXPECT_EQ(h.cols(), 4);
  Tensor x1 = Tensor::Randn(rng, 2, 3);
  Tensor x2 = Tensor::Randn(rng, 2, 3);
  GradCheckResult res = CheckGradients(gru.params(), [&]() {
    Var state = gru.InitialState(2);
    state = gru.Forward(Var::Constant(x1), state);
    state = gru.Forward(Var::Constant(x2), state);
    return Mean(Square(state));
  });
  EXPECT_TRUE(res.ok) << res.max_rel_error;
}

TEST(GruCellTest, RemembersInputs) {
  // With zero input, the GRU state decays smoothly; with distinct inputs
  // the states must differ.
  Rng rng(11);
  GruCell gru(rng, 2, 3);
  Var h0 = gru.InitialState(1);
  Var a = gru.Forward(Var::Constant(Tensor::Full(1, 2, 1.0)), h0);
  Var b = gru.Forward(Var::Constant(Tensor::Full(1, 2, -1.0)), h0);
  EXPECT_GT((a.value() - b.value()).MaxAbs(), 1e-6);
}

// ---------------------------------------------------------------------------
// Gradcheck regression sweep: every layer in layers.h, tight tolerances.
// ---------------------------------------------------------------------------

struct LayerGradCase {
  std::string name;
  std::function<GradCheckResult()> run;
};

// Tighter than the gradcheck defaults (tolerance 1e-4): central differences
// in double precision should agree to ~1e-8, so 1e-6 catches genuine
// backward-pass regressions without flaking on rounding noise.
constexpr Scalar kTightEps = 1e-6;
constexpr Scalar kTightTol = 1e-6;

GradCheckResult TightCheck(std::vector<Var> params,
                           const std::function<Var()>& loss_fn) {
  return CheckGradients(std::move(params), loss_fn, kTightEps, kTightTol);
}

std::vector<LayerGradCase> AllLayerGradCases() {
  std::vector<LayerGradCase> cases;
  cases.push_back({"Linear_WithBias", [] {
    Rng rng(101);
    auto layer = std::make_shared<Linear>(rng, 3, 2);
    Tensor x = Tensor::Randn(rng, 4, 3);
    return TightCheck(layer->params(), [layer, x] {
      return Sum(Square(layer->Forward(Var::Constant(x))));
    });
  }});
  cases.push_back({"Linear_NoBias", [] {
    Rng rng(102);
    auto layer = std::make_shared<Linear>(rng, 4, 3, /*bias=*/false);
    Tensor x = Tensor::Randn(rng, 2, 4);
    return TightCheck(layer->params(), [layer, x] {
      return Mean(Square(layer->Forward(Var::Constant(x))));
    });
  }});
  const struct {
    const char* name;
    Activation act;
  } kActs[] = {{"Relu", Activation::kRelu},
               {"Tanh", Activation::kTanh},
               {"Sigmoid", Activation::kSigmoid},
               {"LeakyRelu", Activation::kLeakyRelu},
               {"Identity", Activation::kIdentity}};
  for (const auto& a : kActs) {
    Activation act = a.act;
    cases.push_back({std::string("Mlp_") + a.name, [act] {
      Rng rng(103);
      auto mlp = std::make_shared<Mlp>(rng, std::vector<int>{3, 5, 2}, act);
      Tensor x = Tensor::Randn(rng, 3, 3);
      return TightCheck(mlp->params(), [mlp, x] {
        return Mean(Square(mlp->Forward(Var::Constant(x))));
      });
    }});
  }
  cases.push_back({"Mlp_FinalActivation", [] {
    Rng rng(104);
    auto mlp = std::make_shared<Mlp>(rng, std::vector<int>{2, 4, 2},
                                     Activation::kSigmoid,
                                     /*final_activation=*/true);
    Tensor x = Tensor::Randn(rng, 3, 2);
    return TightCheck(mlp->params(), [mlp, x] {
      return Sum(Square(mlp->Forward(Var::Constant(x))));
    });
  }});
  cases.push_back({"Embedding_RepeatedIndices", [] {
    Rng rng(105);
    auto emb = std::make_shared<Embedding>(rng, 6, 3);
    // Repeats force gradient accumulation into the same table row.
    std::vector<int> idx = {0, 2, 2, 5};
    return TightCheck(emb->params(), [emb, idx] {
      return Sum(Square(emb->Forward(idx)));
    });
  }});
  cases.push_back({"GruCell_TwoSteps", [] {
    Rng rng(106);
    auto gru = std::make_shared<GruCell>(rng, 3, 4);
    Tensor x1 = Tensor::Randn(rng, 2, 3);
    Tensor x2 = Tensor::Randn(rng, 2, 3);
    return TightCheck(gru->params(), [gru, x1, x2] {
      Var state = gru->InitialState(2);
      state = gru->Forward(Var::Constant(x1), state);
      state = gru->Forward(Var::Constant(x2), state);
      return Mean(Square(state));
    });
  }});
  return cases;
}

class LayerGradCheckTest : public ::testing::TestWithParam<LayerGradCase> {};

TEST_P(LayerGradCheckTest, AnalyticMatchesNumerical) {
  GradCheckResult res = GetParam().run();
  EXPECT_TRUE(res.ok) << GetParam().name
                      << ": max_abs_error=" << res.max_abs_error
                      << " max_rel_error=" << res.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, LayerGradCheckTest, ::testing::ValuesIn(AllLayerGradCases()),
    [](const ::testing::TestParamInfo<LayerGradCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Adam: convergence on closed-form problems.
// ---------------------------------------------------------------------------

TEST(AdamTest, FitsLinearRegression) {
  Rng rng(12);
  // y = X w* + b*; recover w*, b*.
  Tensor w_star(3, 1, std::vector<Scalar>{2.0, -1.0, 0.5});
  Tensor x = Tensor::Randn(rng, 64, 3);
  Tensor y = x.MatMul(w_star);
  for (int i = 0; i < 64; ++i) y.at(i, 0) += 0.7;

  Linear model(rng, 3, 1);
  Adam opt(model.params(), 5e-2);
  double first_loss = 0.0, last_loss = 0.0;
  for (int epoch = 0; epoch < 300; ++epoch) {
    opt.ZeroGrad();
    Var loss = MseLoss(model.Forward(Var::Constant(x)), y);
    Backward(loss);
    opt.Step();
    if (epoch == 0) first_loss = loss.item();
    last_loss = loss.item();
  }
  EXPECT_LT(last_loss, first_loss * 1e-3);
}

TEST(AdamTest, MlpLearnsXor) {
  Rng rng(13);
  Tensor x(4, 2, std::vector<Scalar>{0, 0, 0, 1, 1, 0, 1, 1});
  Tensor y(4, 1, std::vector<Scalar>{0, 1, 1, 0});
  Mlp mlp(rng, {2, 8, 1}, Activation::kTanh);
  Adam opt(mlp.params(), 5e-2);
  for (int epoch = 0; epoch < 500; ++epoch) {
    opt.ZeroGrad();
    Backward(BinaryCrossEntropyWithLogits(mlp.Forward(Var::Constant(x)), y));
    opt.Step();
  }
  Tensor out = mlp.Forward(Var::Constant(x)).value();
  EXPECT_LT(out.at(0, 0), 0.0);
  EXPECT_GT(out.at(1, 0), 0.0);
  EXPECT_GT(out.at(2, 0), 0.0);
  EXPECT_LT(out.at(3, 0), 0.0);
}

TEST(OptimizerTest, ZeroGradClearsAllParams) {
  Rng rng(14);
  Linear layer(rng, 2, 2);
  Backward(Sum(layer.Forward(Var::Constant(Tensor::Ones(1, 2)))));
  Adam opt(layer.params(), 1e-3);
  opt.ZeroGrad();
  for (const Var& p : layer.params())
    EXPECT_DOUBLE_EQ(p.grad().MaxAbs(), 0.0);
}

TEST(OptimizerTest, ClipGradNormBoundsGlobalNorm) {
  Var a = Var::Param(Tensor::Zeros(1, 2));
  Var b = Var::Param(Tensor::Zeros(1, 2));
  Var loss = Sum(Add(Scale(a, 30.0), Scale(b, 40.0)));
  Backward(loss);
  Adam opt({a, b}, 1.0);
  opt.ClipGradNorm(1.0);
  double norm_sq = a.grad().Dot(a.grad()) + b.grad().Dot(b.grad());
  EXPECT_NEAR(std::sqrt(norm_sq), 1.0, 1e-9);
}

TEST(OptimizerTest, UntouchedParamsAreSkipped) {
  // A parameter that never participates in a loss must not be updated.
  Var used = Var::Param(Tensor::Ones(1, 1));
  Var unused = Var::Param(Tensor::Ones(1, 1));
  Adam opt({used, unused}, 0.5);
  opt.ZeroGrad();
  Backward(Sum(Square(used)));
  opt.Step();
  EXPECT_DOUBLE_EQ(unused.value().at(0, 0), 1.0);
  EXPECT_NE(used.value().at(0, 0), 1.0);
}

}  // namespace
}  // namespace tgsim::nn
