#ifndef TGSIM_BASELINES_TAGGEN_H_
#define TGSIM_BASELINES_TAGGEN_H_

#include <memory>
#include <vector>

#include "baselines/generator.h"
#include "baselines/walks.h"
#include "config/param_map.h"
#include "nn/layers.h"
#include "nn/optim.h"

namespace tgsim::baselines {

/// Hyper-parameters of the walk-based baselines.
struct TagGenConfig {
  int embedding_dim = 32;
  int walk_length = 8;
  int walks_per_epoch = 200;
  int epochs = 15;
  int candidates_per_step = 12;  // Observed neighbors + negatives.
  int negatives_per_step = 4;
  int time_window = 2;
  double learning_rate = 5e-3;

  void DefineParams(config::ParamBinder& binder);
  Status ApplyParams(const config::ParamMap& params);
  static config::ParamSchema Schema();
};

/// TagGen (Zhou et al., KDD'20): learns to reproduce temporal random walks
/// and assembles a synthetic graph from generated walks.
///
/// This reproduction keeps TagGen's pipeline — degree-biased walk sampling
/// over the (node, timestamp) state space, a learned bigram transition model
/// with node+time embeddings scored against candidate states, and walk
/// re-assembly — and omits the discriminator (the adversarial variant is the
/// TGGAN baseline). The O(n^2 T^2)-shaped state space is what drives the
/// paper's OOM columns; see EstimatePaperMemoryBytes.
class TagGenGenerator : public TemporalGraphGenerator {
 public:
  explicit TagGenGenerator(TagGenConfig config = {});
  ~TagGenGenerator() override;

  std::string name() const override { return "TagGen"; }
  void Fit(const graphs::TemporalGraph& observed, Rng& rng) override;
  graphs::TemporalGraph Generate(Rng& rng) const override;
  Status Update(const graphs::TemporalGraph& delta, Rng& rng) override;
  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;
  int64_t ResidentStateBytes() const override;

  /// Transition structures over (node x time)^2 pairs; coefficient
  /// calibrated to the paper's 32 GB OOM pattern (runs DBLP and MSG, OOMs
  /// EMAIL/MATH/BITCOIN-*/UBUNTU).
  int64_t EstimatePaperMemoryBytes(int64_t n, int64_t /*m*/,
                                   int64_t t) const override {
    double nt = static_cast<double>(n) * static_cast<double>(t);
    return static_cast<int64_t>(0.15 * nt * nt);
  }

  /// Mean training loss of the last epoch (exposed for tests).
  double last_epoch_loss() const { return last_epoch_loss_; }

 protected:
  /// Scores one walk-step batch and returns the CE loss (shared with the
  /// TGGAN subclass machinery via the embedding tables).
  nn::Var StepLoss(const std::vector<graphs::TemporalNodeRef>& current,
                   const std::vector<std::vector<graphs::TemporalNodeRef>>&
                       candidates,
                   const std::vector<int>& true_index) const;

  /// Embedding of a batch of temporal states (node emb + time emb).
  nn::Var StateEmbedding(const std::vector<graphs::TemporalNodeRef>& states,
                         bool output_table) const;

  /// Constructs the four embedding tables from config_ + shape_ (shared by
  /// Fit and LoadState so parameter order and shapes are fixed here).
  void BuildModel(Rng& rng);
  /// All trainable parameters in the fixed table order.
  std::vector<nn::Var> CollectParams() const;

  TagGenConfig config_;
  ObservedShape shape_;
  /// Owned copy of the observed graph: TagGen's generation walks score
  /// candidate steps over the observed temporal adjacency, so the support
  /// is part of the fitted state (and of the serialized artifact).
  std::unique_ptr<graphs::TemporalGraph> support_;
  /// Fitted walk-start distribution over the support graph.
  std::unique_ptr<graphs::InitialNodeSampler> starts_;
  std::unique_ptr<TemporalWalkSampler> walk_sampler_;  // Training only.
  std::unique_ptr<nn::Embedding> node_emb_;
  std::unique_ptr<nn::Embedding> time_emb_;
  std::unique_ptr<nn::Embedding> node_out_;
  std::unique_ptr<nn::Embedding> time_out_;
  double last_epoch_loss_ = 0.0;
};

}  // namespace tgsim::baselines

#endif  // TGSIM_BASELINES_TAGGEN_H_
