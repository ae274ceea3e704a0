#include "baselines/taggen.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "baselines/state_io.h"
#include "nn/kernels.h"
#include "sampling/samplers.h"

namespace tgsim::baselines {

void TagGenConfig::DefineParams(config::ParamBinder& binder) {
  binder.Bind("embedding_dim", &embedding_dim, "node/time embedding width");
  binder.Bind("walk_length", &walk_length, "temporal walk length");
  binder.Bind("walks_per_epoch", &walks_per_epoch,
              "sampled walks per training epoch");
  binder.Bind("epochs", &epochs, "training epochs");
  binder.Bind("candidates_per_step", &candidates_per_step,
              "candidate states scored per walk step");
  binder.Bind("negatives_per_step", &negatives_per_step,
              "negative candidates per walk step");
  binder.Bind("time_window", &time_window,
              "temporal walk window (|dt| <= w)");
  binder.Bind("learning_rate", &learning_rate, "Adam learning rate");
}

TGSIM_CONFIG_IMPLEMENT_PARAMS(TagGenConfig)

TagGenGenerator::TagGenGenerator(TagGenConfig config)
    : config_(config) {}

TagGenGenerator::~TagGenGenerator() = default;

nn::Var TagGenGenerator::StateEmbedding(
    const std::vector<graphs::TemporalNodeRef>& states,
    bool output_table) const {
  std::vector<int> nodes(states.size());
  std::vector<int> times(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    nodes[i] = states[i].node;
    times[i] = states[i].t;
  }
  const nn::Embedding& ne = output_table ? *node_out_ : *node_emb_;
  const nn::Embedding& te = output_table ? *time_out_ : *time_emb_;
  return nn::Add(ne.Forward(nodes), te.Forward(times));
}

nn::Var TagGenGenerator::StepLoss(
    const std::vector<graphs::TemporalNodeRef>& current,
    const std::vector<std::vector<graphs::TemporalNodeRef>>& candidates,
    const std::vector<int>& true_index) const {
  const int batch = static_cast<int>(current.size());
  TGSIM_CHECK_GT(batch, 0);
  // Flatten candidate lists; `rep[i]` maps flat row i to its batch pair.
  std::vector<graphs::TemporalNodeRef> flat;
  std::vector<int> rep;
  std::vector<double> mask_data;
  for (int b = 0; b < batch; ++b) {
    for (size_t c = 0; c < candidates[static_cast<size_t>(b)].size(); ++c) {
      flat.push_back(candidates[static_cast<size_t>(b)][c]);
      rep.push_back(b);
      mask_data.push_back(
          static_cast<int>(c) == true_index[static_cast<size_t>(b)] ? 1.0
                                                                    : 0.0);
    }
  }
  nn::Var cur_emb = StateEmbedding(current, /*output_table=*/false);
  nn::Var cur_expanded = nn::GatherRows(cur_emb, rep);
  nn::Var cand_emb = StateEmbedding(flat, /*output_table=*/true);
  // Per-row dot product via a constant ones reducer.
  nn::Var prod = nn::Mul(cur_expanded, cand_emb);
  nn::Var ones =
      nn::Var::Constant(nn::Tensor::Ones(config_.embedding_dim, 1));
  nn::Var logits = nn::MatMul(prod, ones);  // F x 1
  nn::Var probs = nn::SegmentSoftmax(logits, rep, batch);
  const int num_flat = static_cast<int>(mask_data.size());
  nn::Tensor mask(num_flat, 1, std::move(mask_data));
  nn::Var picked = nn::Mul(nn::Log(probs), nn::Var::Constant(mask));
  return nn::Scale(nn::Sum(picked), -1.0 / batch);
}

void TagGenGenerator::BuildModel(Rng& rng) {
  const int n = shape_.num_nodes;
  const int t_count = shape_.num_timestamps;
  node_emb_ = std::make_unique<nn::Embedding>(rng, n, config_.embedding_dim);
  time_emb_ =
      std::make_unique<nn::Embedding>(rng, t_count, config_.embedding_dim);
  node_out_ = std::make_unique<nn::Embedding>(rng, n, config_.embedding_dim);
  time_out_ =
      std::make_unique<nn::Embedding>(rng, t_count, config_.embedding_dim);
}

std::vector<nn::Var> TagGenGenerator::CollectParams() const {
  std::vector<nn::Var> params;
  for (const nn::Embedding* e :
       {node_emb_.get(), time_emb_.get(), node_out_.get(), time_out_.get()})
    params.insert(params.end(), e->params().begin(), e->params().end());
  return params;
}

void TagGenGenerator::Fit(const graphs::TemporalGraph& observed, Rng& rng) {
  // The support copy is the fitted structure generation walks on; the
  // caller's graph is not referenced after Fit returns.
  support_ = std::make_unique<graphs::TemporalGraph>(observed);
  shape_.CaptureFrom(*support_);
  walk_sampler_ = std::make_unique<TemporalWalkSampler>(
      support_.get(), config_.time_window);
  starts_ = std::make_unique<graphs::InitialNodeSampler>(
      support_.get(), config_.time_window);

  const int n = shape_.num_nodes;
  const int t_count = shape_.num_timestamps;
  BuildModel(rng);
  std::vector<nn::Var> params = CollectParams();
  nn::Adam opt(params, config_.learning_rate);

  auto random_state = [&](graphs::Timestamp near_t) {
    graphs::TemporalNodeRef s;
    s.node =
        static_cast<graphs::NodeId>(rng.UniformInt(static_cast<int64_t>(n)));
    int lo = std::max(0, near_t - config_.time_window);
    int hi = std::min(t_count - 1, near_t + config_.time_window);
    s.t = static_cast<graphs::Timestamp>(rng.UniformInt(lo, hi));
    return s;
  };

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    std::vector<TemporalWalk> walks = walk_sampler_->SampleMany(
        config_.walks_per_epoch, config_.walk_length, rng);
    std::vector<graphs::TemporalNodeRef> current;
    std::vector<std::vector<graphs::TemporalNodeRef>> candidates;
    std::vector<int> true_index;
    for (const TemporalWalk& w : walks) {
      for (size_t i = 0; i + 1 < w.steps.size(); ++i) {
        const graphs::TemporalNodeRef cur = w.steps[i];
        const graphs::TemporalNodeRef next = w.steps[i + 1];
        std::vector<graphs::TemporalNodeRef> cands = {next};
        // Observed-neighbor distractors.
        std::vector<graphs::TemporalNeighbor> nbrs =
            support_->TemporalNeighborhood(cur.node, cur.t,
                                           config_.time_window);
        int want = std::max(
            0, config_.candidates_per_step - 1 - config_.negatives_per_step);
        for (int c = 0; c < want && !nbrs.empty(); ++c) {
          const auto& nb = nbrs[static_cast<size_t>(
              rng.UniformInt(static_cast<int64_t>(nbrs.size())))];
          cands.push_back({nb.node, nb.t});
        }
        for (int c = 0; c < config_.negatives_per_step; ++c)
          cands.push_back(random_state(cur.t));
        current.push_back(cur);
        candidates.push_back(std::move(cands));
        true_index.push_back(0);
      }
    }
    if (current.empty()) continue;
    opt.ZeroGrad();
    nn::Var loss = StepLoss(current, candidates, true_index);
    nn::Backward(loss);
    opt.ClipGradNorm(5.0);
    opt.Step();
    last_epoch_loss_ = loss.item();
  }
}

Status TagGenGenerator::Update(const graphs::TemporalGraph& delta,
                               Rng& /*rng*/) {
  Status ok = RequireUpdatable(support_ != nullptr, delta, shape_, name());
  if (!ok.ok()) return ok;
  if (delta.num_edges() == 0) return Status::Ok();

  // Generation walks score candidates over the support adjacency, so
  // absorbing a delta means extending the support and rebuilding the
  // start distribution over it (a deterministic function of the merged
  // edges). The embedding tables keep their trained values — scores over
  // the new neighborhoods come from the same bigram model.
  support_ = std::make_unique<graphs::TemporalGraph>(
      MergeSupportGraph(*support_, delta));
  shape_.CaptureFrom(*support_);
  starts_ = std::make_unique<graphs::InitialNodeSampler>(
      support_.get(), config_.time_window);
  walk_sampler_.reset();  // Training-only.
  return Status::Ok();
}

int64_t TagGenGenerator::ResidentStateBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(*this)) +
                  static_cast<int64_t>(shape_.edges_per_timestamp.capacity() *
                                       sizeof(int64_t));
  if (support_ != nullptr) {
    bytes += static_cast<int64_t>(sizeof(*support_)) +
             static_cast<int64_t>(support_->num_edges()) *
                 static_cast<int64_t>(sizeof(graphs::TemporalEdge) +
                                      2 * sizeof(int64_t));
  }
  if (starts_ != nullptr) {
    bytes += static_cast<int64_t>(sizeof(*starts_)) +
             static_cast<int64_t>(starts_->occurrences().capacity() *
                                  sizeof(graphs::TemporalNodeRef)) +
             static_cast<int64_t>(starts_->weights().capacity() *
                                  sizeof(double)) +
             static_cast<int64_t>(starts_->alias().prob().capacity() *
                                  sizeof(double)) +
             static_cast<int64_t>(starts_->alias().alias().capacity() *
                                  sizeof(int64_t));
  }
  if (node_emb_ != nullptr) bytes += ParamsResidentBytes(CollectParams());
  return bytes;
}

graphs::TemporalGraph TagGenGenerator::Generate(Rng& rng) const {
  TGSIM_CHECK(support_ != nullptr);  // Requires a Fit() or LoadState().
  const nn::Tensor& ne = node_emb_->table().value();
  const nn::Tensor& te = time_emb_->table().value();
  const nn::Tensor& no = node_out_->table().value();
  const nn::Tensor& to = time_out_->table().value();
  const int d = config_.embedding_dim;

  const graphs::InitialNodeSampler& starts = *starts_;
  const int64_t budget = shape_.total_edges();

  std::vector<TemporalWalk> walks;
  int64_t projected_edges = 0;
  int guard = 0;
  while (projected_edges < budget && guard < 8 * budget + 64) {
    ++guard;
    graphs::TemporalNodeRef cur = starts.Sample(1, rng)[0];
    TemporalWalk walk;
    walk.steps.push_back(cur);
    std::vector<double> cur_emb(static_cast<size_t>(d));
    for (int step = 0; step + 1 < config_.walk_length; ++step) {
      std::vector<graphs::TemporalNeighbor> nbrs =
          support_->TemporalNeighborhood(cur.node, cur.t,
                                         config_.time_window);
      if (nbrs.empty()) break;
      // Model-scored categorical step over the observed support. The
      // current-step embedding is shared by every candidate, so hoist it
      // out of the candidate loop; the per-candidate logit is then one
      // vectorizable dot against the candidate's node + time rows.
      const double* ne_row = ne.row(cur.node);
      const double* te_row = te.row(cur.t);
      for (int k = 0; k < d; ++k) cur_emb[static_cast<size_t>(k)] =
          ne_row[k] + te_row[k];
      std::vector<double> weights(nbrs.size());
      double max_logit = -1e300;
      std::vector<double> logits(nbrs.size());
      for (size_t c = 0; c < nbrs.size(); ++c) {
        double dot = nn::kernels::DotSum2(cur_emb.data(),
                                          no.row(nbrs[c].node),
                                          to.row(nbrs[c].t), d);
        logits[c] = dot;
        max_logit = std::max(max_logit, dot);
      }
      nn::kernels::ExpRow(logits.data(), max_logit, weights.data(),
                          static_cast<int>(nbrs.size()));
      size_t pick = sampling::WeightedPick(weights, rng);
      cur = {nbrs[pick].node, nbrs[pick].t};
      walk.steps.push_back(cur);
    }
    projected_edges += std::max(0, walk.length() - 1);
    walks.push_back(std::move(walk));
  }
  return AssembleFromWalks(walks, shape_.num_nodes, shape_.num_timestamps,
                           budget, rng);
}

Status TagGenGenerator::SaveState(std::ostream& out) const {
  Status fitted = RequireFitted(support_ != nullptr, name());
  if (!fitted.ok()) return fitted;
  serialize::ArchiveWriter writer(out);
  WriteShape(writer, shape_);
  WriteSupportGraph(writer, "support", *support_);
  writer.BeginSection("params");
  serialize::WriteParams(writer, CollectParams());
  return writer.Finish();
}

Status TagGenGenerator::LoadState(std::istream& in) {
  Result<serialize::ArchiveReader> parsed =
      serialize::ArchiveReader::Parse(in);
  if (!parsed.ok()) return parsed.status();
  const serialize::ArchiveReader& reader = parsed.value();
  ObservedShape shape;
  Status s = ReadShape(reader, shape);
  if (!s.ok()) return s;
  s = CheckEmbeddingTables(reader, shape, config_.embedding_dim);
  if (!s.ok()) return s;
  Result<graphs::TemporalGraph> support = ReadSupportGraph(reader, "support");
  if (!support.ok()) return support.status();

  shape_ = std::move(shape);
  // Values come from the archive; the init rng only shapes the tables.
  Rng init(0);
  BuildModel(init);
  std::vector<nn::Var> params = CollectParams();
  s = serialize::ReadParamsInto(reader, "params", params);
  if (!s.ok()) return s;
  support_ =
      std::make_unique<graphs::TemporalGraph>(std::move(support).value());
  starts_ = std::make_unique<graphs::InitialNodeSampler>(
      support_.get(), config_.time_window);
  walk_sampler_.reset();  // Training-only.
  return Status::Ok();
}

}  // namespace tgsim::baselines
