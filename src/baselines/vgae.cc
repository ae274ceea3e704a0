#include "baselines/vgae.h"

#include <algorithm>
#include <cmath>

#include "baselines/score_sampling.h"
#include "baselines/state_io.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/optim.h"
#include "parallel/parallel_for.h"

namespace tgsim::baselines {

namespace {

/// Elementwise sigmoid on a value tensor, via the dispatched row kernel
/// (same exp as the training-graph nn::Sigmoid).
nn::Tensor SigmoidTensor(const nn::Tensor& x) {
  nn::Tensor out(x.rows(), x.cols());
  parallel::ParallelFor(0, x.size(), parallel::kElementwiseGrain,
                        [&](int64_t b, int64_t e) {
                          nn::kernels::SigmoidRow(x.data() + b, out.data() + b,
                                                  static_cast<int>(e - b));
                        });
  return out;
}

}  // namespace

void VgaeConfig::DefineParams(config::ParamBinder& binder) {
  binder.Bind("hidden_dim", &hidden_dim, "GCN encoder hidden width");
  binder.Bind("latent_dim", &latent_dim, "latent code width");
  binder.Bind("epochs", &epochs, "training epochs per snapshot");
  binder.Bind("learning_rate", &learning_rate, "Adam learning rate");
  binder.Bind("kl_weight", &kl_weight, "KL term weight");
  binder.Bind("refine_rounds", &refine_rounds,
              "Graphite decoder refinement rounds (Graphite only)");
  binder.Bind("score_topk", &score_topk,
              "stored score entries per row (0 = all positive entries)");
}

TGSIM_CONFIG_IMPLEMENT_PARAMS(VgaeConfig)

VgaeGenerator::VgaeGenerator(VgaeConfig config)
    : VgaeGenerator(config, /*graphite=*/false) {}

VgaeGenerator::VgaeGenerator(VgaeConfig config, bool graphite)
    : ScoreMatrixGenerator(config.score_topk),
      config_(config),
      graphite_(graphite) {}

SnapshotScores VgaeGenerator::FitSnapshotScores(
    const std::vector<graphs::TemporalEdge>& edges, Rng& rng) const {
  const int n = num_nodes();
  // Restrict the model to nodes active in this snapshot: inactive rows are
  // all-zero and carry no gradient signal; generation maps indices back.
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
  const int d = config_.latent_dim;
  nn::Var w1 = nn::Var::Param(nn::Tensor::GlorotUniform(local, na, h));
  nn::Var w_mu = nn::Var::Param(nn::Tensor::GlorotUniform(local, h, d));
  nn::Var w_lv = nn::Var::Param(nn::Tensor::GlorotUniform(local, h, d));
  nn::Var w_refine = nn::Var::Param(nn::Tensor::GlorotUniform(local, d, d));
  std::vector<nn::Var> params = {w1, w_mu, w_lv};
  if (graphite_) params.push_back(w_refine);
  nn::Adam opt(params, config_.learning_rate);

  double pos = static_cast<double>(2 * m_sub);
  double pos_weight =
      std::max(1.0, (static_cast<double>(na) * na - pos) / std::max(pos, 1.0));

  auto decode = [&](const nn::Var& z) {
    if (!graphite_) return nn::MatMul(z, nn::Transpose(z));
    nn::Var z_ref = z;
    for (int round = 0; round < config_.refine_rounds; ++round) {
      nn::Var a_soft = nn::Sigmoid(nn::MatMul(z_ref, nn::Transpose(z_ref)));
      z_ref = nn::Add(
          z, nn::Tanh(nn::MatMul(nn::MatMul(a_soft, z_ref), w_refine)));
      z_ref = nn::Scale(z_ref, 1.0 / (na));  // Keep magnitudes bounded.
      z_ref = nn::Add(z, z_ref);
    }
    return nn::MatMul(z_ref, nn::Transpose(z_ref));
  };

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    opt.ZeroGrad();
    nn::Var h1 = nn::Relu(nn::MatMul(a_hat, w1));
    nn::Var mu = nn::MatMul(nn::MatMul(a_hat, h1), w_mu);
    nn::Var logvar = nn::MatMul(nn::MatMul(a_hat, h1), w_lv);
    nn::Var noise = nn::Var::Constant(nn::Tensor::Randn(local, na, d));
    nn::Var z = nn::Add(mu, nn::Mul(nn::Exp(nn::Scale(logvar, 0.5)), noise));
    nn::Var logits = decode(z);
    nn::Var loss = nn::Add(
        nn::BinaryCrossEntropyWithLogits(logits, a_sub, pos_weight),
        nn::Scale(nn::KlToStandardNormal(mu, logvar), config_.kl_weight));
    nn::Backward(loss);
    opt.ClipGradNorm(5.0);
    opt.Step();
  }

  // Deterministic scores from the posterior mean. The submatrix keeps
  // its diagonal — FromSubmatrix never stores diagonal entries anyway.
  nn::Var h1 = nn::Relu(nn::MatMul(a_hat, w1));
  nn::Var mu = nn::MatMul(nn::MatMul(a_hat, h1), w_mu);
  SnapshotScores out;
  out.scores = SigmoidTensor(decode(mu).value());
  out.active = std::move(active);
  return out;
}

GraphiteGenerator::GraphiteGenerator(VgaeConfig config)
    : VgaeGenerator(config, /*graphite=*/true) {}

}  // namespace tgsim::baselines
