#ifndef TGSIM_CORE_TGAE_H_
#define TGSIM_CORE_TGAE_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/generator.h"
#include "common/status.h"
#include "config/param_map.h"
#include "core/tgat_encoder.h"
#include "graph/ego_sampler.h"
#include "nn/layers.h"
#include "nn/optim.h"

namespace tgsim::core {

/// The ablation variants of the paper's Table VII.
enum class TgaeVariant {
  kFull,              // TGAE
  kRandomWalk,        // TGAE-g: ego-graph sampling degraded to chains
  kNoTruncation,      // TGAE-t: neighbor threshold disabled
  kUniformSampling,   // TGAE-n: uniform initial node sampling
  kNonProbabilistic,  // TGAE-p: Z = MLP_mu(X), no KL term
};

/// Hyper-parameters of TGAE (paper Section IV).
struct TgaeConfig {
  /// d_in: dimension of the learned node/time input features.
  int embedding_dim = 32;
  /// d_enc: hidden dimension after temporal graph attention.
  int hidden_dim = 32;
  /// h_tga: number of attention heads (Eq. 3).
  int num_heads = 2;
  /// k: ego-graph radius = number of stacked TGAT layers.
  int radius = 2;
  /// th: neighbor truncation threshold (Alg. 1); 0 disables truncation
  /// (TGAE-t), 1 degenerates ego-graphs to random walks (TGAE-g).
  int neighbor_threshold = 10;
  /// t_N: time-window radius of the temporal neighborhood (Def. 3) used
  /// for ego-graph sampling and encoding.
  int time_window = 2;
  /// t_N used for the generation-time categorical support N(u^t) (paper
  /// Section IV-G normalizes scores over the temporal neighborhood).
  int generation_time_window = 1;
  /// Temporal-proximity prior at generation: multiplier applied to support
  /// neighbors from the window ring (|dt| > 0). The decoder's output
  /// classes are per-node — TGAE's complexity advantage over temporal-walk
  /// state spaces — so exact-time preference is supplied as a prior rather
  /// than learned.
  double generation_ring_weight = 0.005;
  /// n_s: sampled initial temporal nodes per training step (Eq. 7).
  int batch_centers = 32;
  int epochs = 50;
  double learning_rate = 1e-2;
  double kl_weight = 1e-3;
  /// Eq. 2 degree-proportional initial sampling; false = TGAE-n.
  bool degree_weighted_sampling = true;
  /// Variational decoder; false = TGAE-p (Eq. 8/9).
  bool probabilistic = true;
  /// Ties W_dec to the node embedding table (logits = (h+z) E^T + b), so
  /// the attention encoder can raise a neighbor's logit by copying its
  /// embedding into the center representation. Halves decoder parameters
  /// and substantially sharpens the decoded rows.
  bool tie_decoder = true;
  /// Sparse training loss: each decoded row is scored only on its
  /// candidate set (the batch's positives plus `negative_samples` shared
  /// negatives), O(positives + negatives) per row. The candidate-space
  /// logits go through the same sparse-target RowCrossEntropyWithLogits
  /// as the dense n-wide loss, which stays the default (and
  /// `preset=paper`); `preset=fast` flips this on. Generation never reads
  /// it: every preset scores only each row's support columns.
  bool sparse_decoder = false;
  /// Shared negative samples per training batch (sparse decoder only):
  /// uniform node draws appended to the candidate set so the candidate
  /// softmax sees columns outside the batch's positive support.
  int negative_samples = 64;
  /// Center-batch chunk size during generation (bounds encoder memory).
  int generation_chunk = 256;
  /// Name shown in tables ("TGAE", "TGAE-g", ...).
  std::string display_name = "TGAE";

  /// Canonical configuration of an ablation variant.
  static TgaeConfig ForVariant(TgaeVariant v);

  /// Typed parameter surface (config/param_map.h): binds every tunable
  /// field except display_name/variant, which the registry owns.
  void DefineParams(config::ParamBinder& binder);
  Status ApplyParams(const config::ParamMap& params);
  static config::ParamSchema Schema();
};

/// First-parent array of the Alg. 2 path-sum recursion: parent[j] is the
/// ego-node index whose path the decoder row of node j extends (-1 for the
/// center and for nodes with no shallower-depth parent). Strictly layered
/// edges (depth[c] == depth[p] + 1) win; nodes whose strictly-layered chain
/// is broken fall back to any shallower-depth parent so their path sum
/// still reaches the center instead of silently degrading to "own z only".
/// Exposed for the hand-built ego-graph pin test.
std::vector<int> PathSumParents(const graphs::EgoGraph& ego);

/// First node index >= `start` (cyclically) with taken[v] == false; returns
/// `start` if every node is taken. Used by the generation empty-support
/// fallback so a collision never lands on a taken node (or the source node
/// itself) after a single step. Exposed for the regression test.
int NextUntakenNode(const std::vector<bool>& taken, int start);

/// Temporal Graph Autoencoder — the paper's contribution.
///
/// Fit(): samples degree-weighted temporal ego-graphs (Alg. 1), merges them
/// into k-bipartite computation graphs (Fig. 4), encodes with stacked TGAT
/// layers (Eq. 3–5), decodes per-node categorical edge rows through a
/// variational head (Alg. 2), and optimizes the approximate loss of Eq. 7
/// with Adam.
///
/// Generate(): per timestamp, scores every active temporal node on its
/// temporal neighborhood N(u^t) only and samples its observed number of
/// edges without replacement, so the generated graph matches the observed
/// edge budget exactly (paper Section IV-G).
class TgaeGenerator : public baselines::TemporalGraphGenerator {
 public:
  explicit TgaeGenerator(TgaeConfig config = {});
  ~TgaeGenerator() override;

  std::string name() const override { return config_.display_name; }
  void Fit(const graphs::TemporalGraph& observed, Rng& rng) override;
  graphs::TemporalGraph Generate(Rng& rng) const override;

  /// Incremental fit: merges `delta` into the owned support graph, rebuilds
  /// the samplers, and takes a bounded number of warm-start epochs whose
  /// training centers are drawn with a recency-biased variant of the Eq. 2
  /// initial distribution (later timestamps up-weighted), so the fitted
  /// parameters absorb the new observations without a full refit.
  Status Update(const graphs::TemporalGraph& delta, Rng& rng) override;

  /// Paper Section IV-D: training space is O(n (T + n_s)); TGAE never hits
  /// the 32 GB budget on the paper's datasets.
  int64_t EstimatePaperMemoryBytes(int64_t n, int64_t /*m*/,
                                   int64_t t) const override {
    return 8 * n * (t + 256);
  }

  double last_epoch_loss() const { return last_epoch_loss_; }
  const TgaeConfig& config() const { return config_; }

  /// Serializes the complete fitted state — shape, generation support
  /// graph, trained parameters — so LoadState regenerates without the
  /// training data. LoadState builds the model from this generator's
  /// config, so the stored parameter shapes must match it.
  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;
  int64_t ResidentStateBytes() const override;

 private:
  /// Encoded (and, in training, decoded) rows for a batch of ego-graphs.
  struct DecodedBatch {
    nn::Var rows;    // R x d_enc decoder inputs (h_center + path-sum z).
    nn::Var logits;  // Training only, filled by DecodeLogits: R x n (dense
                     // loss) or R x |candidates| (sparse decoder).
    std::vector<graphs::TemporalNodeRef> row_nodes;
    nn::Var mu;      // Variational head outputs (for the KL term); logvar
    nn::Var logvar;  // is set only by a stochastic encode.
  };

  /// Runs the encoder on a batch of ego-graphs and assembles the decoder
  /// input rows (h_center + Alg. 2 path-sum z). With `centers_only` only
  /// the ego centers receive rows (generation); otherwise every ego node
  /// does (training). `stochastic` toggles the reparameterized sample vs.
  /// the posterior mean. Does not decode (training calls DecodeLogits).
  DecodedBatch Encode(const std::vector<graphs::EgoGraph>& egos,
                      bool centers_only, bool stochastic, Rng& rng) const;

  /// Training decode: fills `batch.logits`. With `candidates == nullptr`
  /// this is the dense n-wide decode; otherwise only the candidate columns
  /// are scored (GatherCols on the decoder weight), making the matmul
  /// O(rows x |candidates|).
  void DecodeLogits(DecodedBatch& batch,
                    const std::vector<int>* candidates) const;

  /// Learned input features (node embedding + time embedding).
  nn::Var InputFeatures(
      const std::vector<graphs::TemporalNodeRef>& nodes) const;

  /// Normalized adjacency target rows at each row node's timestamp, as a
  /// sparse (node index, weight) representation in global column space.
  nn::SparseRowTargets TargetRows(
      const std::vector<graphs::TemporalNodeRef>& row_nodes) const;

  /// Decoder logit of node `v` for the decoded row `h` (d_enc wide): one
  /// ascending-k chain down column v of W_dec (a row of the embedding
  /// table when tied) plus b_dec[v] — the exact value of that column of
  /// the dense decode's MatMul. Generation scores support columns, and the
  /// empty-support fallback the n-wide row, through it.
  nn::Scalar DecoderLogit(const nn::Scalar* h, int v) const;

  /// Rebuilds the ego/initial samplers over the owned support graph
  /// (shared by Fit and LoadState).
  void BuildSamplers();

  /// The Fit training loop: `epochs` optimizer steps drawing batch centers
  /// from `centers` (shared by Fit and the Update warm start, which passes
  /// a recency-biased sampler).
  void TrainEpochs(int epochs, const graphs::InitialNodeSampler& centers,
                   Rng& rng);

  /// Constructs embeddings, encoder, variational heads and the decoder
  /// from config_ + shape_ and fills params_ in the fixed order (shared by
  /// Fit and LoadState; LoadState overwrites the values afterwards).
  void BuildModel(Rng& rng);

  TgaeConfig config_;
  /// Owned copy of the observed graph: training targets, ego sampling and
  /// the generation-time categorical support all walk it, so it is part
  /// of the fitted state (and of the serialized artifact).
  std::unique_ptr<graphs::TemporalGraph> support_;
  baselines::ObservedShape shape_;
  std::unique_ptr<graphs::EgoGraphSampler> ego_sampler_;
  std::unique_ptr<graphs::InitialNodeSampler> initial_sampler_;

  std::unique_ptr<nn::Embedding> node_emb_;
  std::unique_ptr<nn::Embedding> time_emb_;
  std::unique_ptr<TgatEncoder> encoder_;
  std::unique_ptr<nn::Mlp> mlp_mu_;
  std::unique_ptr<nn::Mlp> mlp_sigma_;
  nn::Var w_dec_;
  nn::Var b_dec_;
  std::vector<nn::Var> params_;  // All trainable parameters, fixed order.

  double last_epoch_loss_ = 0.0;
};

}  // namespace tgsim::core

#endif  // TGSIM_CORE_TGAE_H_
