#include "baselines/tigger.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "baselines/state_io.h"
#include "sampling/samplers.h"

namespace tgsim::baselines {

void TiggerConfig::DefineParams(config::ParamBinder& binder) {
  binder.Bind("embedding_dim", &embedding_dim, "node/time embedding width");
  binder.Bind("hidden_dim", &hidden_dim, "GRU hidden state width");
  binder.Bind("walk_length", &walk_length, "temporal walk length");
  binder.Bind("walks_per_epoch", &walks_per_epoch,
              "sampled walks per training epoch");
  binder.Bind("epochs", &epochs, "training epochs");
  binder.Bind("time_window", &time_window,
              "temporal walk window (gap classes span [-w, w])");
  binder.Bind("learning_rate", &learning_rate, "Adam learning rate");
}

TGSIM_CONFIG_IMPLEMENT_PARAMS(TiggerConfig)

TiggerGenerator::TiggerGenerator(TiggerConfig config) : config_(config) {}

TiggerGenerator::~TiggerGenerator() = default;

void TiggerGenerator::BuildModel(Rng& rng) {
  const int n = shape_.num_nodes;
  node_emb_ = std::make_unique<nn::Embedding>(rng, n, config_.embedding_dim);
  time_emb_ = std::make_unique<nn::Embedding>(rng, shape_.num_timestamps,
                                              config_.embedding_dim);
  gru_ = std::make_unique<nn::GruCell>(rng, config_.embedding_dim,
                                       config_.hidden_dim);
  node_head_ = std::make_unique<nn::Linear>(rng, config_.hidden_dim, n);
  gap_head_ =
      std::make_unique<nn::Linear>(rng, config_.hidden_dim, NumGapClasses());
}

std::vector<nn::Var> TiggerGenerator::CollectParams() const {
  std::vector<nn::Var> params;
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(node_emb_.get()),
        static_cast<const nn::Module*>(time_emb_.get()),
        static_cast<const nn::Module*>(gru_.get()),
        static_cast<const nn::Module*>(node_head_.get()),
        static_cast<const nn::Module*>(gap_head_.get())})
    params.insert(params.end(), m->params().begin(), m->params().end());
  return params;
}

void TiggerGenerator::Fit(const graphs::TemporalGraph& observed, Rng& rng) {
  shape_.CaptureFrom(observed);
  // Fit-local: a member sampler would dangle into the caller's graph
  // after Fit returns (generators must be self-contained by then).
  TemporalWalkSampler walk_sampler(&observed, config_.time_window);
  starts_ = std::make_unique<graphs::InitialNodeSampler>(
      &observed, config_.time_window);

  BuildModel(rng);
  const int n = shape_.num_nodes;
  std::vector<nn::Var> params = CollectParams();
  nn::Adam opt(params, config_.learning_rate);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    std::vector<TemporalWalk> walks = walk_sampler.SampleMany(
        config_.walks_per_epoch, config_.walk_length, rng);
    // Keep walks with at least one transition; align them step by step.
    walks.erase(std::remove_if(
                    walks.begin(), walks.end(),
                    [](const TemporalWalk& w) { return w.length() < 2; }),
                walks.end());
    if (walks.empty()) continue;
    std::sort(walks.begin(), walks.end(),
              [](const TemporalWalk& a, const TemporalWalk& b) {
                return a.length() > b.length();
              });
    const int batch = static_cast<int>(walks.size());

    opt.ZeroGrad();
    nn::Var h = gru_->InitialState(batch);
    std::vector<nn::Var> step_losses;
    int max_len = walks[0].length();
    for (int j = 0; j + 1 < max_len; ++j) {
      // Active prefix: walks long enough to have step j -> j+1.
      int active = 0;
      while (active < batch && walks[static_cast<size_t>(active)].length() >
                                   j + 1)
        ++active;
      if (active == 0) break;
      std::vector<int> nodes(static_cast<size_t>(active));
      std::vector<int> times(static_cast<size_t>(active));
      nn::Tensor node_target(active, n);
      nn::Tensor gap_target(active, NumGapClasses());
      for (int b = 0; b < active; ++b) {
        const TemporalWalk& w = walks[static_cast<size_t>(b)];
        nodes[static_cast<size_t>(b)] = w.steps[static_cast<size_t>(j)].node;
        times[static_cast<size_t>(b)] = w.steps[static_cast<size_t>(j)].t;
        const auto& nxt = w.steps[static_cast<size_t>(j) + 1];
        node_target.at(b, nxt.node) = 1.0;
        int gap = nxt.t - w.steps[static_cast<size_t>(j)].t +
                  config_.time_window;
        gap = std::clamp(gap, 0, NumGapClasses() - 1);
        gap_target.at(b, gap) = 1.0;
      }
      nn::Var x = nn::Add(node_emb_->Forward(nodes),
                          time_emb_->Forward(times));
      // Shrink the carried state to the active prefix.
      if (h.rows() != active) {
        std::vector<int> keep(static_cast<size_t>(active));
        for (int b = 0; b < active; ++b) keep[static_cast<size_t>(b)] = b;
        h = nn::GatherRows(h, keep);
      }
      h = gru_->Forward(x, h);
      nn::Var node_loss = nn::RowCrossEntropyWithLogits(
          node_head_->Forward(h), node_target);
      nn::Var gap_loss =
          nn::RowCrossEntropyWithLogits(gap_head_->Forward(h), gap_target);
      step_losses.push_back(nn::Add(node_loss, gap_loss));
    }
    if (step_losses.empty()) continue;
    nn::Var total = step_losses[0];
    for (size_t i = 1; i < step_losses.size(); ++i)
      total = nn::Add(total, step_losses[i]);
    total = nn::Scale(total, 1.0 / static_cast<double>(step_losses.size()));
    nn::Backward(total);
    opt.ClipGradNorm(5.0);
    opt.Step();
    last_epoch_loss_ = total.item();
  }
}

Status TiggerGenerator::Update(const graphs::TemporalGraph& delta,
                               Rng& /*rng*/) {
  Status ok = RequireUpdatable(starts_ != nullptr, delta, shape_, name());
  if (!ok.ok()) return ok;
  if (delta.num_edges() == 0) return Status::Ok();

  // Merge the fitted start distribution with the delta's (node, t)
  // occurrences: existing entries keep their position and gain the
  // delta's temporal-degree mass, new occurrences append in enumeration
  // order, and the alias rebuild is deterministic from the merged
  // weights. The recurrent model keeps its trained parameters — walk
  // structure transfers; only the start mixture shifts with new data.
  graphs::InitialNodeSampler delta_starts(&delta, config_.time_window);
  std::vector<graphs::TemporalNodeRef> occurrences(
      starts_->occurrences().begin(), starts_->occurrences().end());
  std::vector<double> weights = starts_->weights();
  std::unordered_map<int64_t, size_t> index;
  index.reserve(occurrences.size());
  const int64_t t_span = shape_.num_timestamps;
  for (size_t i = 0; i < occurrences.size(); ++i)
    index.emplace(static_cast<int64_t>(occurrences[i].node) * t_span +
                      occurrences[i].t,
                  i);
  const auto& delta_occ = delta_starts.occurrences();
  const auto& delta_w = delta_starts.weights();
  for (size_t i = 0; i < delta_occ.size(); ++i) {
    const int64_t key =
        static_cast<int64_t>(delta_occ[i].node) * t_span + delta_occ[i].t;
    auto it = index.find(key);
    if (it != index.end()) {
      weights[it->second] += delta_w[i];
    } else {
      index.emplace(key, occurrences.size());
      occurrences.push_back(delta_occ[i]);
      weights.push_back(delta_w[i]);
    }
  }
  starts_ = std::make_unique<graphs::InitialNodeSampler>(
      std::move(occurrences), std::move(weights));
  MergeDeltaShape(shape_, delta);
  return Status::Ok();
}

int64_t TiggerGenerator::ResidentStateBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(*this)) +
                  static_cast<int64_t>(shape_.edges_per_timestamp.capacity() *
                                       sizeof(int64_t));
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

graphs::TemporalGraph TiggerGenerator::Generate(Rng& rng) {
  TGSIM_CHECK(starts_ != nullptr);  // Requires a Fit() or LoadState().
  const graphs::InitialNodeSampler& starts = *starts_;
  const int64_t budget = shape_.total_edges();
  const int n = shape_.num_nodes;

  std::vector<TemporalWalk> walks;
  int64_t projected = 0;
  int64_t guard = 0;
  while (projected < budget && guard < 8 * budget + 64) {
    ++guard;
    graphs::TemporalNodeRef cur = starts.Sample(1, rng)[0];
    TemporalWalk walk;
    walk.steps.push_back(cur);
    nn::Var h = gru_->InitialState(1);
    for (int j = 0; j + 1 < config_.walk_length; ++j) {
      nn::Var x = nn::Add(node_emb_->Forward({cur.node}),
                          time_emb_->Forward({cur.t}));
      h = gru_->Forward(x, h);
      // Sample straight off the softmax rows — no per-element copies.
      nn::Tensor node_probs = node_head_->Forward(h).value().SoftmaxRows();
      auto next_node = static_cast<graphs::NodeId>(
          sampling::WeightedPick(node_probs.RowSpan(0), rng));

      nn::Tensor gap_probs = gap_head_->Forward(h).value().SoftmaxRows();
      int gap = static_cast<int>(
                    sampling::WeightedPick(gap_probs.RowSpan(0), rng)) -
                config_.time_window;
      int next_t = std::clamp(cur.t + gap, 0, shape_.num_timestamps - 1);

      cur = {next_node, static_cast<graphs::Timestamp>(next_t)};
      walk.steps.push_back(cur);
    }
    projected += std::max(0, walk.length() - 1);
    walks.push_back(std::move(walk));
  }
  return AssembleFromWalks(walks, n, shape_.num_timestamps, budget, rng);
}

Status TiggerGenerator::SaveState(std::ostream& out) const {
  Status fitted = RequireFitted(starts_ != nullptr, name());
  if (!fitted.ok()) return fitted;
  serialize::ArchiveWriter writer(out);
  WriteShape(writer, shape_);
  writer.BeginSection("starts");
  std::vector<int64_t> nodes, times;
  for (const graphs::TemporalNodeRef& occ : starts_->occurrences()) {
    nodes.push_back(occ.node);
    times.push_back(occ.t);
  }
  writer.WriteIntVector("node", nodes);
  writer.WriteIntVector("time", times);
  writer.WriteDoubleVector("weight", starts_->weights());
  writer.BeginSection("params");
  serialize::WriteParams(writer, CollectParams());
  return writer.Finish();
}

Status TiggerGenerator::LoadState(std::istream& in) {
  Result<serialize::ArchiveReader> parsed =
      serialize::ArchiveReader::Parse(in);
  if (!parsed.ok()) return parsed.status();
  const serialize::ArchiveReader& reader = parsed.value();
  ObservedShape shape;
  Status s = ReadShape(reader, shape);
  if (!s.ok()) return s;
  Result<std::vector<int64_t>> nodes = reader.GetIntVector("starts", "node");
  if (!nodes.ok()) return nodes.status();
  Result<std::vector<int64_t>> times = reader.GetIntVector("starts", "time");
  if (!times.ok()) return times.status();
  Result<std::vector<double>> weights =
      reader.GetDoubleVector("starts", "weight");
  if (!weights.ok()) return weights.status();
  if (nodes.value().size() != times.value().size() ||
      nodes.value().size() != weights.value().size() ||
      nodes.value().empty())
    return Status::InvalidArgument(
        "corrupt archive: TIGGER start-distribution vectors disagree");
  s = sampling::ValidateWeights(weights.value());
  if (!s.ok())
    return Status::InvalidArgument("corrupt archive: TIGGER start weights: " +
                                   s.message());
  std::vector<graphs::TemporalNodeRef> occurrences;
  occurrences.reserve(nodes.value().size());
  for (size_t i = 0; i < nodes.value().size(); ++i) {
    if (nodes.value()[i] < 0 || nodes.value()[i] >= shape.num_nodes ||
        times.value()[i] < 0 || times.value()[i] >= shape.num_timestamps)
      return Status::InvalidArgument(
          "corrupt archive: TIGGER start occurrence " + std::to_string(i) +
          " is out of range");
    occurrences.push_back(
        {static_cast<graphs::NodeId>(nodes.value()[i]),
         static_cast<graphs::Timestamp>(times.value()[i])});
  }

  shape_ = std::move(shape);
  // Values come from the archive; the init rng only shapes the structures.
  Rng init(0);
  BuildModel(init);
  std::vector<nn::Var> params = CollectParams();
  s = serialize::ReadParamsInto(reader, "params", params);
  if (!s.ok()) return s;
  // The alias table is derived state: the build is deterministic and the
  // weights round-trip exactly, so the rebuilt sampler is the fitted one.
  starts_ = std::make_unique<graphs::InitialNodeSampler>(
      std::move(occurrences), std::move(weights).value());
  return Status::Ok();
}

}  // namespace tgsim::baselines
