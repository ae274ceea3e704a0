#ifndef TGSIM_BASELINES_TGGAN_H_
#define TGSIM_BASELINES_TGGAN_H_

#include <memory>
#include <vector>

#include "baselines/generator.h"
#include "baselines/walks.h"
#include "config/param_map.h"
#include "nn/layers.h"
#include "nn/optim.h"

namespace tgsim::baselines {

struct TgganConfig {
  int embedding_dim = 24;
  int latent_dim = 16;
  int hidden_dim = 32;
  int walk_length = 6;
  int batch_walks = 24;
  int iterations = 40;
  int time_window = 2;
  double learning_rate = 2e-3;
  double gumbel_tau = 0.75;

  void DefineParams(config::ParamBinder& binder);
  Status ApplyParams(const config::ParamMap& params);
  static config::ParamSchema Schema();
};

/// TG-GAN (Zhang et al., WWW'21): adversarial generation of temporal random
/// walks with time-validity constraints.
///
/// This reproduction keeps the adversarial skeleton: a recurrent generator
/// emits walks as Gumbel-softmax relaxed (node, time-gap) sequences; a
/// discriminator scores walk embeddings; both are trained with the
/// non-saturating GAN objective. Time validity is enforced by the bounded
/// gap classes (|dt| <= time_window) plus timestamp clamping. Like TagGen
/// it lives on the O(n^2 T^2)-shaped state space (paper Table IV/V/VI OOM
/// columns).
class TgganGenerator : public TemporalGraphGenerator {
 public:
  explicit TgganGenerator(TgganConfig config = {});
  ~TgganGenerator() override;

  std::string name() const override { return "TGGAN"; }
  void Fit(const graphs::TemporalGraph& observed, Rng& rng) override;
  graphs::TemporalGraph Generate(Rng& rng) const override;
  /// Bounded adversarial warm start against walks drawn from the delta
  /// (a fresh discriminator; the trained generator network is the prior).
  Status Update(const graphs::TemporalGraph& delta, Rng& rng) override;
  /// Serializes the shape + generator network. The discriminator exists
  /// only to train (generation never evaluates it), so the artifact ships
  /// the serving half; a loaded model generates, it does not resume
  /// adversarial training.
  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;
  int64_t ResidentStateBytes() const override;

  int64_t EstimatePaperMemoryBytes(int64_t n, int64_t /*m*/,
                                   int64_t t) const override {
    double nt = static_cast<double>(n) * static_cast<double>(t);
    return static_cast<int64_t>(0.15 * nt * nt);
  }

  double last_d_loss() const { return last_d_loss_; }
  double last_g_loss() const { return last_g_loss_; }

 private:
  int NumGapClasses() const { return 2 * config_.time_window + 1; }

  /// Generator unroll: returns per-step soft node assignments [B x n] and
  /// soft gap assignments [B x gaps]; used both for training (soft) and
  /// generation (sampled).
  struct Unroll {
    std::vector<nn::Var> soft_nodes;
    std::vector<nn::Var> soft_gaps;
    nn::Var start_nodes;  // B x n softmax over start node.
    nn::Var start_times;  // B x T softmax over start timestamp.
  };
  Unroll RunGenerator(int batch, Rng& rng) const;

  /// Discriminator score (logits, B x 1) of a batch of walks given soft
  /// node/gap assignments per step.
  nn::Var Discriminate(const Unroll& u) const;

  /// Constructs the generator-side modules from config_ + shape_ (shared
  /// by Fit and LoadState so parameter order and shapes are fixed here).
  void BuildGeneratorModel(Rng& rng);
  /// The adversarial loop shared by Fit and Update: builds a fresh
  /// discriminator from `rng` and trains both sides for `iterations`
  /// rounds against walks sampled from `real`.
  void TrainAdversarial(const graphs::TemporalGraph& real, int iterations,
                        Rng& rng);
  /// Generator-side trainable parameters in the fixed module order.
  std::vector<nn::Var> CollectGeneratorParams() const;

  TgganConfig config_;
  ObservedShape shape_;

  // Generator.
  std::unique_ptr<nn::Mlp> g_init_;
  std::unique_ptr<nn::GruCell> g_rnn_;
  std::unique_ptr<nn::Linear> g_node_head_;
  std::unique_ptr<nn::Linear> g_gap_head_;
  std::unique_ptr<nn::Linear> g_start_node_head_;
  std::unique_ptr<nn::Linear> g_start_time_head_;
  std::unique_ptr<nn::Embedding> g_node_emb_;  // Soft next-step input.

  // Discriminator (own embedding tables).
  std::unique_ptr<nn::Embedding> d_node_emb_;
  std::unique_ptr<nn::Embedding> d_time_emb_;
  std::unique_ptr<nn::Embedding> d_gap_emb_;
  std::unique_ptr<nn::Mlp> d_mlp_;

  double last_d_loss_ = 0.0;
  double last_g_loss_ = 0.0;
};

}  // namespace tgsim::baselines

#endif  // TGSIM_BASELINES_TGGAN_H_
