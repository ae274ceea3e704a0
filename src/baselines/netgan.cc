#include "baselines/netgan.h"

#include <algorithm>

#include "baselines/score_sampling.h"
#include "nn/autograd.h"
#include "nn/optim.h"

namespace tgsim::baselines {

void NetGanConfig::DefineParams(config::ParamBinder& binder) {
  binder.Bind("rank", &rank, "rank of the logit factorization U V^T");
  binder.Bind("epochs", &epochs, "gradient-descent epochs per snapshot");
  binder.Bind("learning_rate", &learning_rate, "learning rate");
  binder.Bind("score_topk", &score_topk,
              "stored score entries per row (0 = all positive entries)");
}

TGSIM_CONFIG_IMPLEMENT_PARAMS(NetGanConfig)

NetGanGenerator::NetGanGenerator(NetGanConfig config) : config_(config) {}

void NetGanGenerator::Fit(const graphs::TemporalGraph& observed, Rng& rng) {
  shape_.CaptureFrom(observed);
  // Fit-once/serve-many: every snapshot model trains here, and only the
  // resulting sparse score rows are kept — Generate never sees the
  // training graph again.
  FitScoresPerSnapshot(
      observed, shape_, config_.score_topk, store_,
      [&](const std::vector<graphs::TemporalEdge>& snap) {
        return FitSnapshotScores(snap, rng);
      });
}

SnapshotScores NetGanGenerator::FitSnapshotScores(
    const std::vector<graphs::TemporalEdge>& edges, Rng& rng) const {
  const int n = shape_.num_nodes;
  // Active nodes: endpoints of non-self-loop edges — exactly the nodes
  // with positive degree in the snapshot's simple adjacency. Training
  // runs on the active submatrix only; generation scatters back.
  std::vector<int> active;
  {
    std::vector<bool> seen(static_cast<size_t>(n), false);
    for (const auto& e : edges) {
      if (e.u == e.v) continue;
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
  for (const auto& e : edges) {
    if (e.u == e.v) continue;
    const int u = remap[static_cast<size_t>(e.u)];
    const int v = remap[static_cast<size_t>(e.v)];
    a_sub.at(u, v) = 1.0;
    a_sub.at(v, u) = 1.0;
  }

  // Transition targets P = D^{-1} A over the active subgraph.
  nn::Tensor targets(na, na);
  std::vector<double> degree(static_cast<size_t>(na), 0.0);
  for (int i = 0; i < na; ++i) {
    double deg = 0.0;
    for (int j = 0; j < na; ++j) deg += a_sub.at(i, j);
    degree[static_cast<size_t>(i)] = deg;
    if (deg > 0.0)
      for (int j = 0; j < na; ++j)
        targets.at(i, j) = a_sub.at(i, j) / deg;
  }

  // Low-rank logits: U V^T over the active subgraph.
  const int r = std::min(config_.rank, na);
  Rng local = rng.Fork();
  nn::Var u_mat = nn::Var::Param(nn::Tensor::Randn(local, na, r, 0.1));
  nn::Var v_mat = nn::Var::Param(nn::Tensor::Randn(local, na, r, 0.1));
  nn::Adam opt({u_mat, v_mat}, config_.learning_rate);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    opt.ZeroGrad();
    nn::Var logits = nn::MatMul(u_mat, nn::Transpose(v_mat));
    nn::Var loss = nn::RowCrossEntropyWithLogits(logits, targets);
    nn::Backward(loss);
    opt.Step();
  }

  // Edge scores: stationary(u) * P_hat(u, v), symmetrized, over the
  // active submatrix. The stationary distribution of an undirected walk
  // is degree-proportional.
  nn::Tensor p_hat = u_mat.value()
                         .MatMul(v_mat.value().Transpose())
                         .SoftmaxRows();
  double deg_total = 0.0;
  for (double d : degree) deg_total += d;
  SnapshotScores out;
  out.scores = nn::Tensor(na, na);
  for (int i = 0; i < na; ++i) {
    double pi = degree[static_cast<size_t>(i)] / std::max(deg_total, 1e-9);
    for (int j = 0; j < na; ++j) {
      if (i == j) continue;
      double s = pi * p_hat.at(i, j);
      out.scores.at(i, j) += s;
      out.scores.at(j, i) += s;
    }
  }
  out.active = std::move(active);
  return out;
}

graphs::TemporalGraph NetGanGenerator::Generate(Rng& rng) {
  return GenerateFromScores(shape_, store_, rng);
}

Status NetGanGenerator::Update(const graphs::TemporalGraph& delta, Rng& rng) {
  return UpdateScoresForDelta(
      delta, shape_, store_, config_.score_topk, kUpdateWarmSnapshotLimit,
      rng, name(), [&](const std::vector<graphs::TemporalEdge>& snap) {
        return FitSnapshotScores(snap, rng);
      });
}

Status NetGanGenerator::SaveState(std::ostream& out) const {
  return SaveScoreState(shape_, store_, config_.score_topk, out, name());
}

Status NetGanGenerator::LoadState(std::istream& in) {
  return LoadState(in, "");
}

Status NetGanGenerator::LoadState(std::istream& in, const std::string& path) {
  return LoadScoreState(shape_, store_, in, path);
}

int64_t NetGanGenerator::ResidentStateBytes() const {
  return static_cast<int64_t>(sizeof(*this)) + store_.ResidentBytes() +
         static_cast<int64_t>(shape_.edges_per_timestamp.capacity() *
                              sizeof(int64_t));
}

}  // namespace tgsim::baselines
