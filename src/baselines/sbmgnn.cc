#include "baselines/sbmgnn.h"

#include <algorithm>
#include <cmath>

#include "baselines/score_sampling.h"
#include "baselines/state_io.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/optim.h"

namespace tgsim::baselines {

void SbmGnnConfig::DefineParams(config::ParamBinder& binder) {
  binder.Bind("hidden_dim", &hidden_dim, "GCN encoder hidden width");
  binder.Bind("num_blocks", &num_blocks, "overlapping SBM blocks");
  binder.Bind("epochs", &epochs, "training epochs per snapshot");
  binder.Bind("learning_rate", &learning_rate, "Adam learning rate");
  binder.Bind("score_topk", &score_topk,
              "stored score entries per row (0 = all positive entries)");
}

TGSIM_CONFIG_IMPLEMENT_PARAMS(SbmGnnConfig)

SbmGnnGenerator::SbmGnnGenerator(SbmGnnConfig config)
    : ScoreMatrixGenerator(config.score_topk), config_(config) {}

SnapshotScores SbmGnnGenerator::FitSnapshotScores(
    const std::vector<graphs::TemporalEdge>& edges, Rng& rng) const {
  const int n = num_nodes();
  std::vector<int> active;
  {
    std::vector<bool> seen(static_cast<size_t>(n), false);
    for (const auto& e : edges) {
      seen[static_cast<size_t>(e.u)] = true;
      seen[static_cast<size_t>(e.v)] = true;
    }
    for (int u = 0; u < n; ++u)
      if (seen[static_cast<size_t>(u)]) active.push_back(u);
  }
  if (active.size() < 2) return {};
  const int na = static_cast<int>(active.size());
  std::vector<int> remap(static_cast<size_t>(n), -1);
  for (int i = 0; i < na; ++i) remap[static_cast<size_t>(active[i])] = i;

  nn::Tensor a_sub(na, na);
  int64_t m_sub = 0;
  for (const auto& e : edges) {
    int u = remap[static_cast<size_t>(e.u)];
    int v = remap[static_cast<size_t>(e.v)];
    if (u == v) continue;
    if (a_sub.at(u, v) == 0.0) ++m_sub;
    a_sub.at(u, v) = 1.0;
    a_sub.at(v, u) = 1.0;
  }

  nn::Var a_hat = nn::Var::Constant(NormalizedAdjacency(a_sub));
  Rng local = rng.Fork();
  const int h = config_.hidden_dim;
  const int k = std::min(config_.num_blocks, na);
  nn::Var w1 = nn::Var::Param(nn::Tensor::GlorotUniform(local, na, h));
  nn::Var w_phi = nn::Var::Param(nn::Tensor::GlorotUniform(local, h, k));
  // Block affinity initialized assortative: strong diagonal.
  nn::Tensor b0(k, k, -1.0);
  for (int i = 0; i < k; ++i) b0.at(i, i) = 1.0;
  nn::Var block = nn::Var::Param(std::move(b0));
  nn::Adam opt({w1, w_phi, block}, config_.learning_rate);

  double pos = static_cast<double>(2 * m_sub);
  double pos_weight =
      std::max(1.0, (static_cast<double>(na) * na - pos) / std::max(pos, 1.0));

  auto forward = [&]() {
    nn::Var h1 = nn::Relu(nn::MatMul(a_hat, w1));
    nn::Var phi = nn::SoftmaxRows(nn::MatMul(nn::MatMul(a_hat, h1), w_phi));
    // Scale keeps sigmoid inputs in a useful range for small k.
    return nn::Scale(
        nn::MatMul(nn::MatMul(phi, block), nn::Transpose(phi)), 4.0);
  };

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    opt.ZeroGrad();
    nn::Var loss =
        nn::BinaryCrossEntropyWithLogits(forward(), a_sub, pos_weight);
    nn::Backward(loss);
    opt.ClipGradNorm(5.0);
    opt.Step();
  }

  nn::Tensor logits = forward().value();
  SnapshotScores out;
  out.scores = nn::Tensor(na, na);
  // Sigmoid whole rows through the dispatched kernel, then zero the
  // diagonal the old element loop skipped (scores start at 0).
  for (int i = 0; i < na; ++i) {
    nn::kernels::SigmoidRow(logits.row(i), out.scores.row(i), na);
    out.scores.at(i, i) = 0.0;
  }
  out.active = std::move(active);
  return out;
}

}  // namespace tgsim::baselines
