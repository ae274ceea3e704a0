#include "baselines/tggan.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "baselines/state_io.h"
#include "sampling/samplers.h"

namespace tgsim::baselines {

namespace {

/// Standard Gumbel(0,1) noise tensor.
nn::Tensor GumbelNoise(Rng& rng, int rows, int cols) {
  nn::Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) {
    double u = std::max(rng.Uniform(), 1e-12);
    t.data()[i] = -std::log(-std::log(u));
  }
  return t;
}

/// Gumbel-softmax relaxation of a categorical head.
nn::Var GumbelSoftmax(const nn::Var& logits, double tau, Rng& rng) {
  nn::Var noisy = nn::Add(
      logits,
      nn::Var::Constant(GumbelNoise(rng, logits.rows(), logits.cols())));
  return nn::SoftmaxRows(nn::Scale(noisy, 1.0 / tau));
}

}  // namespace

void TgganConfig::DefineParams(config::ParamBinder& binder) {
  binder.Bind("embedding_dim", &embedding_dim, "node/time embedding width");
  binder.Bind("latent_dim", &latent_dim, "generator latent noise width");
  binder.Bind("hidden_dim", &hidden_dim, "generator/discriminator hidden width");
  binder.Bind("walk_length", &walk_length, "generated walk length");
  binder.Bind("batch_walks", &batch_walks, "walks per adversarial batch");
  binder.Bind("iterations", &iterations, "adversarial training iterations");
  binder.Bind("time_window", &time_window,
              "bounded time-gap window (|dt| <= w)");
  binder.Bind("learning_rate", &learning_rate, "Adam learning rate");
  binder.Bind("gumbel_tau", &gumbel_tau, "Gumbel-softmax temperature");
}

TGSIM_CONFIG_IMPLEMENT_PARAMS(TgganConfig)

TgganGenerator::TgganGenerator(TgganConfig config) : config_(config) {}

TgganGenerator::~TgganGenerator() = default;

TgganGenerator::Unroll TgganGenerator::RunGenerator(int batch,
                                                    Rng& rng) const {
  Unroll u;
  nn::Var z =
      nn::Var::Constant(nn::Tensor::Randn(rng, batch, config_.latent_dim));
  nn::Var h = g_init_->Forward(z);
  u.start_nodes = GumbelSoftmax(g_start_node_head_->Forward(h),
                                config_.gumbel_tau, rng);
  u.start_times = GumbelSoftmax(g_start_time_head_->Forward(h),
                                config_.gumbel_tau, rng);
  nn::Var x = nn::MatMul(u.start_nodes, g_node_emb_->table());
  for (int j = 0; j + 1 < config_.walk_length; ++j) {
    h = g_rnn_->Forward(x, h);
    nn::Var soft_node = GumbelSoftmax(g_node_head_->Forward(h),
                                      config_.gumbel_tau, rng);
    nn::Var soft_gap =
        GumbelSoftmax(g_gap_head_->Forward(h), config_.gumbel_tau, rng);
    u.soft_nodes.push_back(soft_node);
    u.soft_gaps.push_back(soft_gap);
    x = nn::MatMul(soft_node, g_node_emb_->table());
  }
  return u;
}

nn::Var TgganGenerator::Discriminate(const Unroll& u) const {
  nn::Var feat = nn::Add(nn::MatMul(u.start_nodes, d_node_emb_->table()),
                         nn::MatMul(u.start_times, d_time_emb_->table()));
  for (size_t j = 0; j < u.soft_nodes.size(); ++j) {
    nn::Var step =
        nn::Add(nn::MatMul(u.soft_nodes[j], d_node_emb_->table()),
                nn::MatMul(u.soft_gaps[j], d_gap_emb_->table()));
    feat = nn::Add(feat, step);
  }
  feat = nn::Scale(feat,
                   1.0 / static_cast<double>(u.soft_nodes.size() + 1));
  return d_mlp_->Forward(feat);
}

void TgganGenerator::BuildGeneratorModel(Rng& rng) {
  const int n = shape_.num_nodes;
  const int t_count = shape_.num_timestamps;
  const int d = config_.embedding_dim;
  g_init_ = std::make_unique<nn::Mlp>(
      rng, std::vector<int>{config_.latent_dim, config_.hidden_dim},
      nn::Activation::kTanh, /*final_activation=*/true);
  g_rnn_ = std::make_unique<nn::GruCell>(rng, d, config_.hidden_dim);
  g_node_head_ = std::make_unique<nn::Linear>(rng, config_.hidden_dim, n);
  g_gap_head_ =
      std::make_unique<nn::Linear>(rng, config_.hidden_dim, NumGapClasses());
  g_start_node_head_ =
      std::make_unique<nn::Linear>(rng, config_.hidden_dim, n);
  g_start_time_head_ =
      std::make_unique<nn::Linear>(rng, config_.hidden_dim, t_count);
  g_node_emb_ = std::make_unique<nn::Embedding>(rng, n, d);
}

std::vector<nn::Var> TgganGenerator::CollectGeneratorParams() const {
  std::vector<nn::Var> params;
  for (const nn::Module* m : {static_cast<const nn::Module*>(g_init_.get()),
                              static_cast<const nn::Module*>(g_rnn_.get()),
                              static_cast<const nn::Module*>(g_node_head_.get()),
                              static_cast<const nn::Module*>(g_gap_head_.get()),
                              static_cast<const nn::Module*>(
                                  g_start_node_head_.get()),
                              static_cast<const nn::Module*>(
                                  g_start_time_head_.get()),
                              static_cast<const nn::Module*>(g_node_emb_.get())})
    params.insert(params.end(), m->params().begin(), m->params().end());
  return params;
}

void TgganGenerator::Fit(const graphs::TemporalGraph& observed, Rng& rng) {
  shape_.CaptureFrom(observed);
  BuildGeneratorModel(rng);
  TrainAdversarial(observed, config_.iterations, rng);
}

void TgganGenerator::TrainAdversarial(const graphs::TemporalGraph& real,
                                      int iterations, Rng& rng) {
  const int n = shape_.num_nodes;
  const int t_count = shape_.num_timestamps;
  const int d = config_.embedding_dim;

  d_node_emb_ = std::make_unique<nn::Embedding>(rng, n, d);
  d_time_emb_ = std::make_unique<nn::Embedding>(rng, t_count, d);
  d_gap_emb_ = std::make_unique<nn::Embedding>(rng, NumGapClasses(), d);
  d_mlp_ = std::make_unique<nn::Mlp>(
      rng, std::vector<int>{d, config_.hidden_dim, 1},
      nn::Activation::kLeakyRelu);

  std::vector<nn::Var> g_params = CollectGeneratorParams();
  std::vector<nn::Var> d_params;
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(d_node_emb_.get()),
        static_cast<const nn::Module*>(d_time_emb_.get()),
        static_cast<const nn::Module*>(d_gap_emb_.get()),
        static_cast<const nn::Module*>(d_mlp_.get())})
    d_params.insert(d_params.end(), m->params().begin(), m->params().end());
  nn::Adam g_opt(g_params, config_.learning_rate);
  nn::Adam d_opt(d_params, config_.learning_rate);

  TemporalWalkSampler sampler(&real, config_.time_window);
  const int batch = config_.batch_walks;

  // Converts sampled real walks into the Unroll (one-hot) representation,
  // padding dead-end walks by repeating the last node with a zero gap.
  auto real_unroll = [&]() {
    Unroll u;
    std::vector<TemporalWalk> walks =
        sampler.SampleMany(batch, config_.walk_length, rng);
    nn::Tensor start_nodes(batch, n);
    nn::Tensor start_times(batch, t_count);
    std::vector<nn::Tensor> nodes;
    std::vector<nn::Tensor> gaps;
    for (int j = 0; j + 1 < config_.walk_length; ++j) {
      nodes.emplace_back(batch, n);
      gaps.emplace_back(batch, NumGapClasses());
    }
    for (int b = 0; b < batch; ++b) {
      const TemporalWalk& w = walks[static_cast<size_t>(b)];
      start_nodes.at(b, w.steps[0].node) = 1.0;
      start_times.at(b, w.steps[0].t) = 1.0;
      graphs::TemporalNodeRef prev = w.steps[0];
      for (int j = 0; j + 1 < config_.walk_length; ++j) {
        graphs::TemporalNodeRef cur =
            static_cast<size_t>(j) + 1 < w.steps.size()
                ? w.steps[static_cast<size_t>(j) + 1]
                : prev;
        nodes[static_cast<size_t>(j)].at(b, cur.node) = 1.0;
        int gap = std::clamp(cur.t - prev.t + config_.time_window, 0,
                             NumGapClasses() - 1);
        gaps[static_cast<size_t>(j)].at(b, gap) = 1.0;
        prev = cur;
      }
    }
    u.start_nodes = nn::Var::Constant(std::move(start_nodes));
    u.start_times = nn::Var::Constant(std::move(start_times));
    for (auto& t : nodes) u.soft_nodes.push_back(nn::Var::Constant(std::move(t)));
    for (auto& t : gaps) u.soft_gaps.push_back(nn::Var::Constant(std::move(t)));
    return u;
  };

  nn::Tensor ones(batch, 1, 1.0);
  nn::Tensor zeros(batch, 1, 0.0);
  for (int it = 0; it < iterations; ++it) {
    // Discriminator phase (generator grads are discarded by its ZeroGrad).
    d_opt.ZeroGrad();
    g_opt.ZeroGrad();
    Unroll real = real_unroll();
    Unroll fake = RunGenerator(batch, rng);
    nn::Var d_loss =
        nn::Add(nn::BinaryCrossEntropyWithLogits(Discriminate(real), ones),
                nn::BinaryCrossEntropyWithLogits(Discriminate(fake), zeros));
    nn::Backward(d_loss);
    d_opt.ClipGradNorm(5.0);
    d_opt.Step();
    last_d_loss_ = d_loss.item();

    // Generator phase (non-saturating objective).
    g_opt.ZeroGrad();
    d_opt.ZeroGrad();
    Unroll fake2 = RunGenerator(batch, rng);
    nn::Var g_loss =
        nn::BinaryCrossEntropyWithLogits(Discriminate(fake2), ones);
    nn::Backward(g_loss);
    g_opt.ClipGradNorm(5.0);
    g_opt.Step();
    last_g_loss_ = g_loss.item();
  }
}

Status TgganGenerator::Update(const graphs::TemporalGraph& delta, Rng& rng) {
  Status ok = RequireUpdatable(g_init_ != nullptr, delta, shape_, name());
  if (!ok.ok()) return ok;
  if (delta.num_edges() == 0) return Status::Ok();
  // A bounded warm start: the trained generator is the prior; a fresh
  // discriminator learns to separate it from walks over the new edges.
  const int warm = std::max(1, std::min(config_.iterations, 4));
  TrainAdversarial(delta, warm, rng);
  MergeDeltaShape(shape_, delta);
  return Status::Ok();
}

int64_t TgganGenerator::ResidentStateBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(*this)) +
                  static_cast<int64_t>(shape_.edges_per_timestamp.capacity() *
                                       sizeof(int64_t));
  if (g_init_ != nullptr) bytes += ParamsResidentBytes(CollectGeneratorParams());
  if (d_node_emb_ != nullptr) {
    std::vector<nn::Var> d_params;
    for (const nn::Module* m :
         {static_cast<const nn::Module*>(d_node_emb_.get()),
          static_cast<const nn::Module*>(d_time_emb_.get()),
          static_cast<const nn::Module*>(d_gap_emb_.get()),
          static_cast<const nn::Module*>(d_mlp_.get())})
      d_params.insert(d_params.end(), m->params().begin(), m->params().end());
    bytes += ParamsResidentBytes(d_params);
  }
  return bytes;
}

graphs::TemporalGraph TgganGenerator::Generate(Rng& rng) const {
  TGSIM_CHECK(g_init_ != nullptr);  // Requires a Fit() or LoadState().
  const int64_t budget = shape_.total_edges();
  const int n = shape_.num_nodes;
  const int t_count = shape_.num_timestamps;

  std::vector<TemporalWalk> walks;
  int64_t projected = 0;
  // Sample straight off the softmax row — no per-element copies.
  auto sample_row = [&](const nn::Tensor& probs, int row) {
    return static_cast<int>(sampling::WeightedPick(probs.RowSpan(row), rng));
  };
  while (projected < budget) {
    Unroll u = RunGenerator(config_.batch_walks, rng);
    for (int b = 0; b < config_.batch_walks; ++b) {
      TemporalWalk walk;
      int node = sample_row(u.start_nodes.value(), b);
      int t = sample_row(u.start_times.value(), b);
      walk.steps.push_back({static_cast<graphs::NodeId>(node),
                            static_cast<graphs::Timestamp>(t)});
      for (size_t j = 0; j < u.soft_nodes.size(); ++j) {
        node = sample_row(u.soft_nodes[j].value(), b);
        int gap = sample_row(u.soft_gaps[j].value(), b) -
                  config_.time_window;
        t = std::clamp(t + gap, 0, t_count - 1);
        walk.steps.push_back({static_cast<graphs::NodeId>(node),
                              static_cast<graphs::Timestamp>(t)});
      }
      projected += std::max(0, walk.length() - 1);
      walks.push_back(std::move(walk));
      if (projected >= budget) break;
    }
  }
  return AssembleFromWalks(walks, n, t_count, budget, rng);
}

Status TgganGenerator::SaveState(std::ostream& out) const {
  Status fitted = RequireFitted(g_init_ != nullptr, name());
  if (!fitted.ok()) return fitted;
  serialize::ArchiveWriter writer(out);
  WriteShape(writer, shape_);
  writer.BeginSection("params");
  serialize::WriteParams(writer, CollectGeneratorParams());
  return writer.Finish();
}

Status TgganGenerator::LoadState(std::istream& in) {
  Result<serialize::ArchiveReader> parsed =
      serialize::ArchiveReader::Parse(in);
  if (!parsed.ok()) return parsed.status();
  const serialize::ArchiveReader& reader = parsed.value();
  ObservedShape shape;
  Status s = ReadShape(reader, shape);
  if (!s.ok()) return s;

  shape_ = std::move(shape);
  // Values come from the archive; the init rng only shapes the modules.
  Rng init(0);
  BuildGeneratorModel(init);
  std::vector<nn::Var> params = CollectGeneratorParams();
  s = serialize::ReadParamsInto(reader, "params", params);
  if (!s.ok()) return s;
  // The discriminator is not part of the serving artifact.
  d_node_emb_.reset();
  d_time_emb_.reset();
  d_gap_emb_.reset();
  d_mlp_.reset();
  return Status::Ok();
}

}  // namespace tgsim::baselines
