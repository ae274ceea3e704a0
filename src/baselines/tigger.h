#ifndef TGSIM_BASELINES_TIGGER_H_
#define TGSIM_BASELINES_TIGGER_H_

#include <memory>
#include <vector>

#include "baselines/generator.h"
#include "baselines/walks.h"
#include "config/param_map.h"
#include "nn/layers.h"
#include "nn/optim.h"

namespace tgsim::baselines {

struct TiggerConfig {
  int embedding_dim = 32;
  int hidden_dim = 48;
  int walk_length = 8;
  int walks_per_epoch = 120;
  int epochs = 12;
  int time_window = 2;
  double learning_rate = 5e-3;

  void DefineParams(config::ParamBinder& binder);
  Status ApplyParams(const config::ParamMap& params);
  static config::ParamSchema Schema();
};

/// TIGGER (Gupta et al., AAAI'22): scalable autoregressive temporal walk
/// model. This reproduction keeps the skeleton: a recurrent (GRU) model over
/// temporal random walks predicting the next node (full softmax over n
/// nodes) and the inter-event time gap, followed by walk re-assembly. Its
/// O(n x M) cost model keeps it alive far beyond TagGen (matching the
/// paper's tables, where only UBUNTU knocks TIGGER out).
class TiggerGenerator : public TemporalGraphGenerator {
 public:
  explicit TiggerGenerator(TiggerConfig config = {});
  ~TiggerGenerator() override;

  std::string name() const override { return "TIGGER"; }
  void Fit(const graphs::TemporalGraph& observed, Rng& rng) override;
  graphs::TemporalGraph Generate(Rng& rng) const override;
  Status Update(const graphs::TemporalGraph& delta, Rng& rng) override;
  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;
  int64_t ResidentStateBytes() const override;

  int64_t EstimatePaperMemoryBytes(int64_t n, int64_t m,
                                   int64_t /*t*/) const override {
    return n * m;  // Node-embedding x walk-corpus working set.
  }

  double last_epoch_loss() const { return last_epoch_loss_; }

 private:
  /// Number of time-gap classes: gaps in [-w, w] around the current step.
  int NumGapClasses() const { return 2 * config_.time_window + 1; }

  /// Constructs the model modules from config_ + shape_ (shared by Fit and
  /// LoadState so the parameter order and shapes are fixed in one place).
  void BuildModel(Rng& rng);
  /// All trainable parameters in the fixed module order.
  std::vector<nn::Var> CollectParams() const;

  TiggerConfig config_;
  ObservedShape shape_;
  /// Fitted walk-start distribution (part of the serialized state; the
  /// training graph is not needed at generation time).
  std::unique_ptr<graphs::InitialNodeSampler> starts_;
  std::unique_ptr<nn::Embedding> node_emb_;
  std::unique_ptr<nn::Embedding> time_emb_;
  std::unique_ptr<nn::GruCell> gru_;
  std::unique_ptr<nn::Linear> node_head_;
  std::unique_ptr<nn::Linear> gap_head_;
  double last_epoch_loss_ = 0.0;
};

}  // namespace tgsim::baselines

#endif  // TGSIM_BASELINES_TIGGER_H_
