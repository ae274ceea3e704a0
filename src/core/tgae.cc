#include "core/tgae.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "baselines/state_io.h"
#include "graph/bipartite.h"
#include "nn/kernels.h"
#include "sampling/samplers.h"
#include "serialize/serialization.h"

namespace tgsim::core {

namespace {

/// Insertion-ordered node -> dense-column map for the sampled-softmax
/// training candidate set: `Add` assigns the next column to a first-seen
/// node, `slot_of` answers lookups in O(1).
class CandidateSet {
 public:
  explicit CandidateSet(int num_nodes)
      : slot_(static_cast<size_t>(num_nodes), -1) {}

  void Add(int v) {
    if (slot_[static_cast<size_t>(v)] < 0) {
      slot_[static_cast<size_t>(v)] = static_cast<int>(columns_.size());
      columns_.push_back(v);
    }
  }

  int slot_of(int v) const { return slot_[static_cast<size_t>(v)]; }
  const std::vector<int>& columns() const { return columns_; }

 private:
  std::vector<int> slot_;
  std::vector<int> columns_;
};

}  // namespace

TgaeConfig TgaeConfig::ForVariant(TgaeVariant v) {
  TgaeConfig c;
  switch (v) {
    case TgaeVariant::kFull:
      c.display_name = "TGAE";
      break;
    case TgaeVariant::kRandomWalk:
      c.neighbor_threshold = 1;
      c.display_name = "TGAE-g";
      break;
    case TgaeVariant::kNoTruncation:
      c.neighbor_threshold = 0;
      c.display_name = "TGAE-t";
      break;
    case TgaeVariant::kUniformSampling:
      c.degree_weighted_sampling = false;
      c.display_name = "TGAE-n";
      break;
    case TgaeVariant::kNonProbabilistic:
      c.probabilistic = false;
      c.display_name = "TGAE-p";
      break;
  }
  return c;
}

void TgaeConfig::DefineParams(config::ParamBinder& binder) {
  binder.Bind("embedding_dim", &embedding_dim,
              "d_in: node/time input feature dimension");
  binder.Bind("hidden_dim", &hidden_dim,
              "d_enc: hidden dimension after temporal graph attention");
  binder.Bind("num_heads", &num_heads, "attention heads (Eq. 3)");
  binder.Bind("radius", &radius, "k: ego-graph radius / stacked TGAT layers");
  binder.Bind("neighbor_threshold", &neighbor_threshold,
              "th: neighbor truncation threshold (0 disables, 1 = chains)");
  binder.Bind("time_window", &time_window,
              "t_N: temporal neighborhood radius for sampling/encoding");
  binder.Bind("generation_time_window", &generation_time_window,
              "t_N of the generation-time categorical support");
  binder.Bind("generation_ring_weight", &generation_ring_weight,
              "temporal-proximity prior on window-ring support neighbors");
  binder.Bind("batch_centers", &batch_centers,
              "n_s: sampled initial temporal nodes per step (Eq. 7)");
  binder.Bind("epochs", &epochs, "training epochs");
  binder.Bind("learning_rate", &learning_rate, "Adam learning rate");
  binder.Bind("kl_weight", &kl_weight, "KL term weight (Eq. 7)");
  binder.Bind("degree_weighted_sampling", &degree_weighted_sampling,
              "Eq. 2 degree-proportional initial sampling (false = TGAE-n)");
  binder.Bind("probabilistic", &probabilistic,
              "variational decoder (false = TGAE-p)");
  binder.Bind("tie_decoder", &tie_decoder,
              "tie W_dec to the node embedding table");
  binder.Bind("sparse_decoder", &sparse_decoder,
              "sampled-softmax training loss over a candidate set (dense "
              "n-wide loss when false); generation is unaffected");
  binder.Bind("negative_samples", &negative_samples,
              "shared negative samples per batch for the sampled-softmax "
              "loss (sparse_decoder only)");
  binder.Bind("generation_chunk", &generation_chunk,
              "center-batch chunk size during generation");
}

TGSIM_CONFIG_IMPLEMENT_PARAMS(TgaeConfig)

std::vector<int> PathSumParents(const graphs::EgoGraph& ego) {
  // First-parent tree for the Alg. 2 path sums. Strictly layered edges
  // (depth[c] == depth[p] + 1) define the tree so paths cannot cycle.
  std::vector<int> parent(static_cast<size_t>(ego.size()), -1);
  for (auto [p, c] : ego.edges) {
    if (ego.depth[static_cast<size_t>(c)] !=
        ego.depth[static_cast<size_t>(p)] + 1)
      continue;
    if (parent[static_cast<size_t>(c)] == -1)
      parent[static_cast<size_t>(c)] = p;
  }
  // A node reachable only through non-strictly-layered edges has no tree
  // parent, which would silently degrade its path sum to "own z only".
  // Anchor it to any shallower-depth parent instead: depth still strictly
  // decreases along the chain, so the path reaches the center acyclically.
  for (auto [p, c] : ego.edges) {
    if (c == 0) continue;
    if (parent[static_cast<size_t>(c)] == -1 &&
        ego.depth[static_cast<size_t>(p)] <
            ego.depth[static_cast<size_t>(c)])
      parent[static_cast<size_t>(c)] = p;
  }
  return parent;
}

int NextUntakenNode(const std::vector<bool>& taken, int start) {
  const int n = static_cast<int>(taken.size());
  TGSIM_CHECK_GT(n, 0);
  TGSIM_CHECK(start >= 0 && start < n);
  for (int step = 0; step < n; ++step) {
    int v = start + step;
    if (v >= n) v -= n;
    if (!taken[static_cast<size_t>(v)]) return v;
  }
  return start;
}

TgaeGenerator::TgaeGenerator(TgaeConfig config) : config_(config) {}

TgaeGenerator::~TgaeGenerator() = default;

nn::Var TgaeGenerator::InputFeatures(
    const std::vector<graphs::TemporalNodeRef>& nodes) const {
  std::vector<int> node_idx(nodes.size());
  std::vector<int> time_idx(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    node_idx[i] = nodes[i].node;
    time_idx[i] = nodes[i].t;
  }
  return nn::Add(node_emb_->Forward(node_idx), time_emb_->Forward(time_idx));
}

TgaeGenerator::DecodedBatch TgaeGenerator::Encode(
    const std::vector<graphs::EgoGraph>& egos, bool centers_only,
    bool stochastic, Rng& rng) const {
  TGSIM_CHECK(!egos.empty());
  graphs::BipartiteStack stack =
      graphs::BuildBipartiteStack(egos, config_.radius);
  nn::Var sk_feats = InputFeatures(
      stack.layer_nodes[static_cast<size_t>(config_.radius)]);
  nn::Var h0 = encoder_->Forward(stack, sk_feats);  // |S_0| x d_enc.

  // Flatten the decoded node set: centers only, or every ego node.
  DecodedBatch batch;
  std::vector<int> center_of_row;      // Row -> index into h0.
  std::vector<int> z_src;              // Gather indices into Z.
  std::vector<int> z_dst;              // Row receiving that Z contribution.
  std::vector<graphs::TemporalNodeRef> z_nodes;  // Z row definitions.

  if (centers_only) {
    for (size_t e = 0; e < egos.size(); ++e) {
      batch.row_nodes.push_back(egos[e].center);
      center_of_row.push_back(stack.center_index[e]);
      // Row = h_center + z_center.
      z_src.push_back(static_cast<int>(z_nodes.size()));
      z_dst.push_back(static_cast<int>(batch.row_nodes.size()) - 1);
      z_nodes.push_back(egos[e].center);
    }
  } else {
    for (size_t e = 0; e < egos.size(); ++e) {
      const graphs::EgoGraph& ego = egos[e];
      std::vector<int> parent = PathSumParents(ego);
      int z_base = static_cast<int>(z_nodes.size());
      for (int j = 0; j < ego.size(); ++j)
        z_nodes.push_back(ego.nodes[static_cast<size_t>(j)]);
      for (int j = 0; j < ego.size(); ++j) {
        int row = static_cast<int>(batch.row_nodes.size());
        batch.row_nodes.push_back(ego.nodes[static_cast<size_t>(j)]);
        center_of_row.push_back(stack.center_index[e]);
        if (j == 0) {
          z_src.push_back(z_base);  // Center row: h_center + z_center.
          z_dst.push_back(row);
        } else {
          // Accumulate z along the path center -> j (excluding center).
          int cur = j;
          int guard = 0;
          while (cur > 0 && guard++ <= ego.size()) {
            z_src.push_back(z_base + cur);
            z_dst.push_back(row);
            cur = parent[static_cast<size_t>(cur)];
            if (cur < 0) break;
          }
        }
      }
    }
  }

  // Variational head over the Z node set (Alg. 2: MLP_mu / MLP_sigma).
  // The posterior mean needs no MLP_sigma, so only a stochastic (training)
  // encode runs it.
  nn::Var x_z = InputFeatures(z_nodes);
  batch.mu = mlp_mu_->Forward(x_z);
  nn::Var z = batch.mu;
  if (config_.probabilistic && stochastic) {
    batch.logvar = mlp_sigma_->Forward(x_z);
    nn::Var noise = nn::Var::Constant(
        nn::Tensor::Randn(rng, batch.mu.rows(), batch.mu.cols()));
    z = nn::Add(batch.mu,
                nn::Mul(nn::Exp(nn::Scale(batch.logvar, 0.5)), noise));
  }

  const int num_rows = static_cast<int>(batch.row_nodes.size());
  nn::Var rows_h = nn::GatherRows(h0, center_of_row);
  nn::Var z_contrib =
      nn::SegmentSum(nn::GatherRows(z, z_src), z_dst, num_rows);
  batch.rows = nn::Add(rows_h, z_contrib);
  return batch;
}

void TgaeGenerator::DecodeLogits(DecodedBatch& batch,
                                 const std::vector<int>* candidates) const {
  if (candidates == nullptr) {
    batch.logits = nn::Affine(
        batch.rows,
        config_.tie_decoder ? nn::Transpose(node_emb_->table()) : w_dec_,
        b_dec_);
    return;
  }
  // Candidate-set decode: slice the candidate columns out of the decoder
  // weight, so the matmul costs O(rows x |candidates| x d_enc). For the
  // tied decoder a row gather + transpose stays O(|candidates| x d_enc)
  // instead of transposing the whole n-row table.
  nn::Var w_cols =
      config_.tie_decoder
          ? nn::Transpose(nn::GatherRows(node_emb_->table(), *candidates))
          : nn::GatherCols(w_dec_, *candidates);
  batch.logits =
      nn::Affine(batch.rows, w_cols, nn::GatherCols(b_dec_, *candidates));
}

nn::SparseRowTargets TgaeGenerator::TargetRows(
    const std::vector<graphs::TemporalNodeRef>& row_nodes) const {
  nn::SparseRowTargets targets;
  targets.offsets.reserve(row_nodes.size() + 1);
  // Node -> entry slot of the current row; touched slots are reset after
  // each row so hub-sized neighborhoods dedup in O(k), not O(k^2).
  std::vector<int> slot(static_cast<size_t>(shape_.num_nodes), -1);
  for (size_t i = 0; i < row_nodes.size(); ++i) {
    // Directed adjacency row A_{u^t} (Eq. 6); temporal nodes that only
    // appear as destinations fall back to their full temporal neighborhood
    // so every decoded row receives signal.
    std::vector<graphs::TemporalNeighbor> nbrs = support_->OutNeighborhood(
        row_nodes[i].node, row_nodes[i].t, /*time_window=*/0);
    if (nbrs.empty()) {
      nbrs = support_->TemporalNeighborhood(row_nodes[i].node,
                                            row_nodes[i].t,
                                            /*time_window=*/0);
    }
    if (!nbrs.empty()) {
      double w = 1.0 / static_cast<double>(nbrs.size());
      const int row_begin = static_cast<int>(targets.cols.size());
      for (const auto& nb : nbrs) {
        // Repeated neighbors accumulate +w per occurrence, reproducing the
        // dense adjacency-row build bit for bit when scattered.
        int& e = slot[static_cast<size_t>(nb.node)];
        if (e < 0) {
          e = static_cast<int>(targets.cols.size());
          targets.AppendEntry(nb.node, w);
        } else {
          targets.weights[static_cast<size_t>(e)] += w;
        }
      }
      for (int e = row_begin; e < static_cast<int>(targets.cols.size());
           ++e)
        slot[static_cast<size_t>(targets.cols[static_cast<size_t>(e)])] = -1;
    }
    targets.FinishRow();
  }
  return targets;
}

const std::vector<nn::Scalar>& TgaeGenerator::DecodePanel(int d) const {
  const int n = shape_.num_nodes;
  const int blocks = (n + 3) / 4;
  if (decode_panel_valid_) return decode_panel_;
  decode_panel_.assign(static_cast<size_t>(blocks) * d * 4, 0.0);
  if (config_.tie_decoder) {
    // Tied decoder: column v of W_dec is row v of the embedding table.
    const nn::Tensor& table = node_emb_->table().value();
    for (int v = 0; v < n; ++v) {
      const nn::Scalar* col = table.row(v);
      nn::Scalar* block = decode_panel_.data() +
                          static_cast<size_t>(v / 4) * d * 4 + (v % 4);
      for (int k = 0; k < d; ++k) block[4 * k] = col[k];
    }
  } else {
    const nn::Tensor& w = w_dec_.value();
    for (int k = 0; k < d; ++k) {
      const nn::Scalar* wk = w.row(k);
      for (int v = 0; v < n; ++v)
        decode_panel_[static_cast<size_t>(v / 4) * d * 4 +
                      static_cast<size_t>(k) * 4 + (v % 4)] = wk[v];
    }
  }
  decode_panel_valid_ = true;
  return decode_panel_;
}

std::vector<nn::Scalar> TgaeGenerator::DenseLogitsRow(const nn::Tensor& rows,
                                                      int r) const {
  const int n = shape_.num_nodes;
  const int d = rows.cols();
  const nn::Scalar* h = rows.row(r);
  const nn::Tensor& bias = b_dec_.value();
  // One DotPanel4 call scores four columns from a contiguous k-major
  // panel block: each output keeps its own ascending-k chain, so the
  // logits stay bit-identical to the strided per-column loop — and to the
  // MatMul columns of the dense decode (the sparse-vs-dense generation
  // pin depends on it) — while the loads run contiguous and four chains
  // overlap instead of one.
  const std::vector<nn::Scalar>& panel = DecodePanel(d);
  std::vector<nn::Scalar> out(static_cast<size_t>(4 * ((n + 3) / 4)), 0.0);
  for (int v = 0; v < n; v += 4)
    nn::kernels::DotPanel4(h,
                           panel.data() + static_cast<size_t>(v / 4) * d * 4,
                           d, out.data() + v);
  out.resize(static_cast<size_t>(n));  // drop the zero-padded tail columns
  nn::kernels::AddRow(out.data(), bias.row(0), n);
  return out;
}

void TgaeGenerator::BuildSamplers() {
  graphs::EgoGraphConfig ego_cfg;
  ego_cfg.radius = config_.radius;
  ego_cfg.neighbor_threshold = config_.neighbor_threshold;
  ego_cfg.time_window = config_.time_window;
  ego_sampler_ =
      std::make_unique<graphs::EgoGraphSampler>(support_.get(), ego_cfg);
  initial_sampler_ = std::make_unique<graphs::InitialNodeSampler>(
      support_.get(), config_.time_window,
      /*uniform=*/!config_.degree_weighted_sampling);
}

void TgaeGenerator::BuildModel(Rng& rng) {
  const int n = shape_.num_nodes;
  node_emb_ = std::make_unique<nn::Embedding>(rng, n, config_.embedding_dim);
  time_emb_ = std::make_unique<nn::Embedding>(rng, shape_.num_timestamps,
                                              config_.embedding_dim);
  encoder_ = std::make_unique<TgatEncoder>(
      rng, config_.embedding_dim, config_.hidden_dim, config_.num_heads,
      config_.radius);
  mlp_mu_ = std::make_unique<nn::Mlp>(
      rng,
      std::vector<int>{config_.embedding_dim, config_.hidden_dim,
                       config_.hidden_dim},
      nn::Activation::kTanh);
  mlp_sigma_ = std::make_unique<nn::Mlp>(
      rng,
      std::vector<int>{config_.embedding_dim, config_.hidden_dim,
                       config_.hidden_dim},
      nn::Activation::kTanh);
  Rng init = rng.Fork();
  if (config_.tie_decoder) {
    // Tied decoder shares the node embedding table; the row representation
    // and the embeddings must live in the same space.
    TGSIM_CHECK_EQ(config_.hidden_dim, config_.embedding_dim);
  } else {
    w_dec_ = nn::Var::Param(
        nn::Tensor::GlorotUniform(init, config_.hidden_dim, n));
  }
  b_dec_ = nn::Var::Param(nn::Tensor::Zeros(1, n));

  params_.clear();
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(node_emb_.get()),
        static_cast<const nn::Module*>(time_emb_.get()),
        static_cast<const nn::Module*>(encoder_.get()),
        static_cast<const nn::Module*>(mlp_mu_.get()),
        static_cast<const nn::Module*>(mlp_sigma_.get())})
    params_.insert(params_.end(), m->params().begin(), m->params().end());
  if (!config_.tie_decoder) params_.push_back(w_dec_);
  params_.push_back(b_dec_);
}

void TgaeGenerator::Fit(const graphs::TemporalGraph& observed, Rng& rng) {
  // The support copy backs training targets, ego sampling and generation;
  // the caller's graph is not referenced after Fit returns.
  support_ = std::make_unique<graphs::TemporalGraph>(observed);
  shape_.CaptureFrom(*support_);
  BuildSamplers();
  BuildModel(rng);
  TrainEpochs(config_.epochs, *initial_sampler_, rng);
}

void TgaeGenerator::TrainEpochs(int epochs,
                                const graphs::InitialNodeSampler& center_dist,
                                Rng& rng) {
  const int n = shape_.num_nodes;
  nn::Adam opt(params_, config_.learning_rate);

  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::vector<graphs::TemporalNodeRef> centers =
        center_dist.Sample(config_.batch_centers, rng);
    std::vector<graphs::EgoGraph> egos;
    egos.reserve(centers.size());
    for (const auto& c : centers) egos.push_back(ego_sampler_->Sample(c, rng));

    opt.ZeroGrad();
    DecodedBatch batch = Encode(egos, /*centers_only=*/false,
                                /*stochastic=*/true, rng);
    nn::SparseRowTargets targets = TargetRows(batch.row_nodes);
    nn::Var loss;
    if (config_.sparse_decoder) {
      // Candidate set: the batch's positives plus `negative_samples`
      // shared uniform negatives, so the sampled softmax scores each row
      // on O(positives + negatives) columns instead of all n.
      CandidateSet candidates(n);
      for (int c : targets.cols) candidates.Add(c);
      for (int s = 0; s < config_.negative_samples; ++s)
        candidates.Add(static_cast<int>(rng.UniformInt(n)));
      // Remap the targets from global node ids to candidate space.
      for (int& c : targets.cols) c = candidates.slot_of(c);
      DecodeLogits(batch, &candidates.columns());
      loss = nn::SampledSoftmaxCrossEntropy(batch.logits, targets);
    } else {
      DecodeLogits(batch, /*candidates=*/nullptr);
      loss = nn::RowCrossEntropyWithLogits(batch.logits, std::move(targets));
    }
    if (config_.probabilistic) {
      loss = nn::Add(loss, nn::Scale(nn::KlToStandardNormal(
                                         batch.mu, batch.logvar),
                                     config_.kl_weight));
    }
    nn::Backward(loss);
    opt.ClipGradNorm(5.0);
    opt.Step();
    last_epoch_loss_ = loss.item();
  }
  decode_panel_valid_ = false;  // decoder weights moved; repack lazily
}

Status TgaeGenerator::Update(const graphs::TemporalGraph& delta, Rng& rng) {
  Status ok =
      baselines::RequireUpdatable(support_ != nullptr, delta, shape_, name());
  if (!ok.ok()) return ok;
  if (delta.num_edges() == 0) return Status::Ok();

  support_ = std::make_unique<graphs::TemporalGraph>(
      baselines::MergeSupportGraph(*support_, delta));
  shape_.CaptureFrom(*support_);
  BuildSamplers();

  // Warm start on the merged support: a bounded number of epochs whose
  // batch centers come from a recency-biased variant of the Eq. 2 initial
  // distribution — occurrence weights are scaled by exp((t - (T-1)) / tau),
  // so the updated (recent) snapshots dominate the gradient signal while
  // earlier snapshots still appear and guard against forgetting.
  const std::vector<graphs::TemporalNodeRef>& occ =
      initial_sampler_->occurrences();
  const std::vector<double>& base = initial_sampler_->weights();
  const double tau =
      std::max(1.0, static_cast<double>(shape_.num_timestamps) / 4.0);
  const double horizon = static_cast<double>(shape_.num_timestamps - 1);
  std::vector<double> biased(occ.size());
  for (size_t i = 0; i < occ.size(); ++i) {
    const double w = config_.degree_weighted_sampling ? base[i] : 1.0;
    biased[i] =
        w * std::exp((static_cast<double>(occ[i].t) - horizon) / tau);
  }
  graphs::InitialNodeSampler recent(occ, std::move(biased));

  const int warm_epochs = std::max(
      1, std::min(config_.epochs, baselines::kUpdateWarmSnapshotLimit));
  TrainEpochs(warm_epochs, recent, rng);
  return Status::Ok();
}

int64_t TgaeGenerator::ResidentStateBytes() const {
  int64_t total = static_cast<int64_t>(sizeof(*this)) +
                  baselines::ParamsResidentBytes(params_) +
                  static_cast<int64_t>(shape_.edges_per_timestamp.capacity() *
                                       sizeof(int64_t));
  if (support_) {
    total += static_cast<int64_t>(support_->num_edges()) *
             static_cast<int64_t>(sizeof(graphs::TemporalEdge) +
                                  2 * sizeof(int64_t));
  }
  if (initial_sampler_) {
    total += static_cast<int64_t>(
        initial_sampler_->occurrences().capacity() *
            sizeof(graphs::TemporalNodeRef) +
        initial_sampler_->weights().capacity() * sizeof(double) +
        initial_sampler_->alias().size() *
            (sizeof(double) + sizeof(int64_t)));
  }
  return total;
}

Status TgaeGenerator::SaveState(std::ostream& out) const {
  Status fitted = baselines::RequireFitted(support_ != nullptr, name());
  if (!fitted.ok()) return fitted;
  serialize::ArchiveWriter writer(out);
  baselines::WriteShape(writer, shape_);
  baselines::WriteSupportGraph(writer, "support", *support_);
  writer.BeginSection("params");
  serialize::WriteParams(writer, params_);
  return writer.Finish();
}

Status TgaeGenerator::LoadState(std::istream& in) {
  Result<serialize::ArchiveReader> parsed =
      serialize::ArchiveReader::Parse(in);
  if (!parsed.ok()) return parsed.status();
  const serialize::ArchiveReader& reader = parsed.value();
  baselines::ObservedShape shape;
  Status s = baselines::ReadShape(reader, shape);
  if (!s.ok()) return s;
  Result<graphs::TemporalGraph> support =
      baselines::ReadSupportGraph(reader, "support");
  if (!support.ok()) return support.status();

  shape_ = std::move(shape);
  support_ =
      std::make_unique<graphs::TemporalGraph>(std::move(support).value());
  BuildSamplers();
  // Values come from the archive; the init rng only shapes the modules.
  Rng init(0);
  BuildModel(init);
  decode_panel_valid_ = false;
  return serialize::ReadParamsInto(reader, "params", params_);
}

graphs::TemporalGraph TgaeGenerator::Generate(Rng& rng) {
  TGSIM_CHECK(support_ != nullptr);  // Requires a Fit() or LoadState().
  const int n = shape_.num_nodes;
  graphs::TemporalGraph out(n, shape_.num_timestamps);

  for (int t = 0; t < shape_.num_timestamps; ++t) {
    // Active temporal nodes at t with their observed out-edge budgets
    // (generation stops exactly at the observed edge amount, Section IV-G).
    std::vector<graphs::TemporalNodeRef> occ;
    std::vector<int> budget;
    {
      auto span = support_->EdgesAt(static_cast<graphs::Timestamp>(t));
      std::vector<int> count(static_cast<size_t>(n), 0);
      for (const auto& e : span) ++count[static_cast<size_t>(e.u)];
      for (int u = 0; u < n; ++u) {
        if (count[static_cast<size_t>(u)] > 0) {
          occ.push_back({static_cast<graphs::NodeId>(u),
                         static_cast<graphs::Timestamp>(t)});
          budget.push_back(count[static_cast<size_t>(u)]);
        }
      }
    }
    // Chunked encoding bounds the ego graphs and decoder rows held at once.
    for (size_t base = 0; base < occ.size();
         base += static_cast<size_t>(config_.generation_chunk)) {
      size_t end = std::min(
          occ.size(), base + static_cast<size_t>(config_.generation_chunk));
      std::vector<graphs::EgoGraph> egos;
      for (size_t i = base; i < end; ++i)
        egos.push_back(ego_sampler_->Sample(occ[i], rng));

      // Support sets first (pure observed-graph lookups, no rng): paper
      // Section IV-G normalizes the categorical over the temporal
      // neighborhood N(u^t) — scores outside the neighborhood support are
      // not eligible. The support is directed (the row's budget is the
      // observed out-degree). Neighbors from the surrounding window ring
      // carry a fixed temporal-proximity discount: the decoder's output
      // classes are per-node (that is TGAE's O(n^2 T) advantage over
      // TagGen's O(n^2 T^2) state space), so within-window time preference
      // cannot be learned and is supplied as a prior (DESIGN.md §2).
      const size_t chunk_rows = end - base;
      std::vector<std::vector<graphs::NodeId>> supports(chunk_rows);
      std::vector<std::vector<bool>> exacts(chunk_rows);
      for (size_t i = base; i < end; ++i) {
        const graphs::NodeId u = occ[i].node;
        std::vector<graphs::NodeId>& support = supports[i - base];
        std::vector<bool>& is_exact = exacts[i - base];
        std::vector<graphs::TemporalNeighbor> nbrs =
            support_->OutNeighborhood(u, occ[i].t,
                                       config_.generation_time_window);
        std::unordered_set<graphs::NodeId> seen;
        for (const auto& nb : nbrs) {
          if (nb.node == u) continue;
          auto [it, inserted] = seen.insert(nb.node);
          if (inserted) {
            support.push_back(nb.node);
            is_exact.push_back(nb.t == occ[i].t);
          } else if (nb.t == occ[i].t) {
            for (size_t c = 0; c < support.size(); ++c)
              if (support[c] == nb.node) is_exact[c] = true;
          }
        }
      }

      DecodedBatch batch = Encode(egos, /*centers_only=*/true,
                                  /*stochastic=*/false, rng);
      const nn::Tensor& rows = batch.rows.value();
      const int d = rows.cols();
      const nn::Tensor& table = node_emb_->table().value();
      const nn::Scalar* bias = b_dec_.value().row(0);
      // Untied decoder columns are strided in W_dec; read them as lanes of
      // the k-major decode panel instead.
      const nn::Scalar* panel =
          config_.tie_decoder ? nullptr : DecodePanel(d).data();

      for (size_t i = base; i < end; ++i) {
        const int row = static_cast<int>(i - base);
        const graphs::NodeId u = occ[i].node;
        const std::vector<graphs::NodeId>& support = supports[i - base];
        const std::vector<bool>& is_exact = exacts[i - base];

        // Only the support columns are scored, O(|support| d) per row. Each
        // logit is one ascending-k chain plus the bias, the exact value of
        // the dense decode's MatMul column, so the draws are those of the
        // n-wide decode on every preset.
        const nn::Scalar* h = rows.row(row);
        std::vector<nn::Scalar> sup_logits(support.size());
        for (size_t c = 0; c < support.size(); ++c) {
          const int v = support[c];
          nn::Scalar dot;
          if (panel == nullptr) {
            dot = nn::kernels::Dot(h, table.row(v), d);
          } else {
            nn::Scalar lanes[4];
            nn::kernels::DotPanel4(
                h, panel + static_cast<size_t>(v / 4) * d * 4, d, lanes);
            dot = lanes[v % 4];
          }
          sup_logits[c] = dot + bias[v];
        }

        // The categorical is normalized on the support directly: a
        // stabilized exp over the support logits times the ring prior. (A
        // full-row softmax restricted to the support renormalizes to the
        // same distribution; this skips the n-wide pass.)
        auto support_weights = [&]() {
          std::vector<double> w(support.size());
          if (!support.empty()) {
            const int count = static_cast<int>(support.size());
            const nn::Scalar m = nn::kernels::RowMax(sup_logits.data(),
                                                     count);
            nn::kernels::ExpRow(sup_logits.data(), m, w.data(), count);
            for (size_t c = 0; c < support.size(); ++c)
              if (!is_exact[c]) w[c] *= config_.generation_ring_weight;
          }
          return w;
        };
        // Full-row probabilities, needed only by the empty-support
        // fallback: the n-wide row is built on demand (O(n d) for the rare
        // row instead of every row).
        auto full_row_probs = [&]() {
          std::vector<nn::Scalar> p = DenseLogitsRow(rows, row);
          const int count = static_cast<int>(p.size());
          const nn::Scalar m = nn::kernels::RowMax(p.data(), count);
          // ExpRowSum in place (x == dst is full-alias-safe).
          const nn::Scalar z = nn::kernels::ExpRowSum(p.data(), m, p.data(),
                                                      count);
          nn::kernels::DivRow(p.data(), z, count);
          return p;
        };

        // Categorical sampling without replacement (paper Section IV-G);
        // budgets beyond the support fall back to the full score row.
        std::vector<double> weights = support_weights();
        int wanted = std::min(budget[i], n - 1);
        int from_support =
            std::min(wanted, static_cast<int>(support.size()));
        std::vector<bool> taken(static_cast<size_t>(n), false);
        taken[static_cast<size_t>(u)] = true;
        // Sum-tree draws: O(log s) per draw + consume, replacing the old
        // O(s) WeightedChoice scan followed by an O(s) all-zero rescan on
        // every draw. Internal sums are exact child sums, so total()
        // reaches exactly 0.0 once every entry is consumed — the loop
        // needs no epsilon and no rescan.
        sampling::TreeSampler tree(weights);
        for (int d = 0; d < from_support; ++d) {
          size_t pick = tree.Draw(rng);
          graphs::NodeId v = support[pick];
          out.AddEdge(u, v, static_cast<graphs::Timestamp>(t));
          taken[static_cast<size_t>(v)] = true;
          tree.Update(pick, 0.0);
          if (!(tree.total() > 0.0)) {
            from_support = d + 1;
            break;
          }
        }
        if (from_support < wanted) {
          // The observed stream can carry more edges at (u, t) than there
          // are distinct neighbors (repeated interactions). Once the
          // support is exhausted, the remainder re-samples the support
          // with replacement, reproducing duplicate temporal edges; only
          // an empty support falls back to the full score row.
          if (!support.empty()) {
            const sampling::TreeSampler replay(support_weights());
            for (int d = from_support; d < wanted; ++d) {
              graphs::NodeId v = support[replay.Draw(rng)];
              out.AddEdge(u, v, static_cast<graphs::Timestamp>(t));
            }
          } else {
            std::vector<nn::Scalar> probs = full_row_probs();
            std::vector<double> full(static_cast<size_t>(n));
            // Running remaining-mass counter: subtracting each consumed
            // entry replaces the old O(n) re-sum before every draw.
            double remaining = 0.0;
            for (int v = 0; v < n; ++v) {
              const double w = taken[static_cast<size_t>(v)]
                                   ? 0.0
                                   : probs[static_cast<size_t>(v)];
              full[static_cast<size_t>(v)] = w;
              remaining += w;
            }
            for (int d = from_support; d < wanted; ++d) {
              graphs::NodeId v;
              if (remaining <= 1e-15) {
                // All remaining probability mass sits on taken nodes:
                // draw uniformly and scan to the next untaken node, so a
                // collision can never emit a duplicate destination or a
                // self-loop (u itself is marked taken).
                v = static_cast<graphs::NodeId>(NextUntakenNode(
                    taken,
                    static_cast<int>(rng.UniformInt(static_cast<int64_t>(n)))));
              } else {
                v = static_cast<graphs::NodeId>(
                    sampling::WeightedPick(full, rng));
              }
              out.AddEdge(u, v, static_cast<graphs::Timestamp>(t));
              taken[static_cast<size_t>(v)] = true;
              remaining -= full[static_cast<size_t>(v)];
              full[static_cast<size_t>(v)] = 0.0;
            }
          }
        }
      }
    }
  }
  out.Finalize();
  return out;
}

}  // namespace tgsim::core
