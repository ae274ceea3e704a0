#include "baselines/state_io.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <utility>
#include <vector>

#include "baselines/score_sampling.h"
#include "sampling/samplers.h"
#include "storage/block_file.h"

namespace tgsim::baselines {

namespace {

/// Field name of the timestamp-t score matrix ("t0", "t1", ...). Built by
/// appending (not `"t" + std::to_string(t)`) to sidestep a GCC 12
/// -Wrestrict false positive on const char* + std::string&&.
std::string ScoreFieldName(int t) {
  std::string name = "t";
  name += std::to_string(t);
  return name;
}

/// Archived counts are untrusted int64s destined for int fields: a value
/// past INT_MAX would wrap in static_cast<int> and crash (or silently
/// mis-size) downstream, so reject it as corruption instead.
bool FitsInt(int64_t value) {
  return value >= 0 && value <= std::numeric_limits<int>::max();
}

}  // namespace

Status RequireFitted(bool fitted, const std::string& method) {
  if (fitted) return Status::Ok();
  return Status::InvalidArgument("SaveState of '" + method +
                                 "' requires a prior Fit()");
}

Status RequireUpdatable(bool fitted, const graphs::TemporalGraph& delta,
                        const ObservedShape& shape,
                        const std::string& method) {
  if (!fitted)
    return Status::InvalidArgument("Update of '" + method +
                                   "' requires a prior Fit()");
  if (!delta.finalized())
    return Status::InvalidArgument("Update of '" + method +
                                   "' requires a finalized delta graph");
  if (delta.num_nodes() > shape.num_nodes ||
      delta.num_timestamps() > shape.num_timestamps)
    return Status::InvalidArgument(
        "Update of '" + method + "': delta spans " +
        std::to_string(delta.num_nodes()) + " nodes x " +
        std::to_string(delta.num_timestamps()) +
        " timestamps but the fitted shape is " +
        std::to_string(shape.num_nodes) + " x " +
        std::to_string(shape.num_timestamps) +
        " (growing either axis requires a full refit)");
  return Status::Ok();
}

void MergeDeltaShape(ObservedShape& shape,
                     const graphs::TemporalGraph& delta) {
  const std::vector<int64_t> per_t = delta.EdgesPerTimestamp();
  TGSIM_CHECK_LE(per_t.size(), shape.edges_per_timestamp.size());
  for (size_t t = 0; t < per_t.size(); ++t)
    shape.edges_per_timestamp[t] += per_t[t];
}

graphs::TemporalGraph MergeSupportGraph(const graphs::TemporalGraph& support,
                                        const graphs::TemporalGraph& delta) {
  std::vector<graphs::TemporalEdge> edges;
  edges.reserve(static_cast<size_t>(support.num_edges() + delta.num_edges()));
  const auto support_edges = support.edges();
  const auto delta_edges = delta.edges();
  edges.insert(edges.end(), support_edges.begin(), support_edges.end());
  edges.insert(edges.end(), delta_edges.begin(), delta_edges.end());
  Result<graphs::TemporalGraph> merged = graphs::TemporalGraph::FromEdges(
      support.num_nodes(), support.num_timestamps(), std::move(edges));
  // RequireUpdatable bounds the delta to the support's universe, so the
  // merge cannot fail.
  TGSIM_CHECK(merged.ok());
  return std::move(merged).value();
}

int64_t ParamsResidentBytes(const std::vector<nn::Var>& params) {
  int64_t bytes = 0;
  for (const nn::Var& p : params)
    bytes += static_cast<int64_t>(p.rows()) * static_cast<int64_t>(p.cols()) *
             static_cast<int64_t>(sizeof(nn::Scalar));
  return bytes;
}

std::vector<int> SampleRecentSnapshots(const std::vector<int>& candidates,
                                       int k, int num_timestamps, Rng& rng) {
  if (k >= static_cast<int>(candidates.size())) return candidates;
  std::vector<int> picked;
  if (k <= 0) return picked;
  const double tau = std::max(1.0, num_timestamps / 4.0);
  std::vector<double> weights;
  weights.reserve(candidates.size());
  for (int t : candidates)
    weights.push_back(std::exp((t - (num_timestamps - 1)) / tau));
  picked.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    const size_t idx = sampling::WeightedPick(weights, rng);
    picked.push_back(candidates[idx]);
    weights[idx] = 0.0;  // Without replacement.
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

void WriteShape(serialize::ArchiveWriter& writer,
                const ObservedShape& shape) {
  writer.BeginSection("shape");
  writer.WriteInt("num_nodes", shape.num_nodes);
  writer.WriteInt("num_timestamps", shape.num_timestamps);
  writer.WriteIntVector("edges_per_timestamp", shape.edges_per_timestamp);
}

Status ReadShape(const serialize::ArchiveReader& reader,
                 ObservedShape& shape) {
  Result<int64_t> nodes = reader.GetInt("shape", "num_nodes");
  if (!nodes.ok()) return nodes.status();
  Result<int64_t> timestamps = reader.GetInt("shape", "num_timestamps");
  if (!timestamps.ok()) return timestamps.status();
  Result<std::vector<int64_t>> per_t =
      reader.GetIntVector("shape", "edges_per_timestamp");
  if (!per_t.ok()) return per_t.status();
  // A fitted shape always has n >= 1 and T >= 1 (the TemporalGraph ctor
  // enforces both), so anything else is corruption — rejecting it here
  // keeps Generate from CHECK-aborting on a loaded artifact.
  if (nodes.value() <= 0 || !FitsInt(nodes.value()) ||
      timestamps.value() <= 0 || !FitsInt(timestamps.value()) ||
      per_t.value().size() != static_cast<size_t>(timestamps.value()))
    return Status::InvalidArgument(
        "corrupt archive: inconsistent shape section");
  // The edge total saturates at INT_MAX, past which the bound is flat.
  constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
  int64_t num_edges = 0;
  for (int64_t count : per_t.value()) {
    if (count < 0)
      return Status::InvalidArgument(
          "corrupt archive: negative per-timestamp edge count");
    num_edges = std::min(num_edges + std::min(count, kMaxInt), kMaxInt);
  }
  Status bound = graphs::CheckShapeJustifiedByEdges(
      nodes.value(), timestamps.value(), num_edges);
  if (!bound.ok())
    return Status::InvalidArgument("corrupt archive: " + bound.message());
  shape.num_nodes = static_cast<int>(nodes.value());
  shape.num_timestamps = static_cast<int>(timestamps.value());
  shape.edges_per_timestamp = std::move(per_t).value();
  return Status::Ok();
}

Status CheckEmbeddingTables(const serialize::ArchiveReader& reader,
                            const ObservedShape& shape, int dim) {
  Status s = serialize::CheckParamShape(reader, "params", 0, shape.num_nodes,
                                        dim);
  if (!s.ok()) return s;
  return serialize::CheckParamShape(reader, "params", 1,
                                    shape.num_timestamps, dim);
}

void WriteSupportGraph(serialize::ArchiveWriter& writer,
                       const std::string& section,
                       const graphs::TemporalGraph& graph) {
  writer.BeginSection(section);
  writer.WriteInt("num_nodes", graph.num_nodes());
  writer.WriteInt("num_timestamps", graph.num_timestamps());
  std::vector<int64_t> u, v, t;
  u.reserve(static_cast<size_t>(graph.num_edges()));
  v.reserve(static_cast<size_t>(graph.num_edges()));
  t.reserve(static_cast<size_t>(graph.num_edges()));
  for (const graphs::TemporalEdge& e : graph.edges()) {
    u.push_back(e.u);
    v.push_back(e.v);
    t.push_back(e.t);
  }
  writer.WriteIntVector("edge_u", u);
  writer.WriteIntVector("edge_v", v);
  writer.WriteIntVector("edge_t", t);
}

Result<graphs::TemporalGraph> ReadSupportGraph(
    const serialize::ArchiveReader& reader, const std::string& section) {
  Result<int64_t> nodes = reader.GetInt(section, "num_nodes");
  if (!nodes.ok()) return nodes.status();
  Result<int64_t> timestamps = reader.GetInt(section, "num_timestamps");
  if (!timestamps.ok()) return timestamps.status();
  Result<std::vector<int64_t>> u = reader.GetIntVector(section, "edge_u");
  if (!u.ok()) return u.status();
  Result<std::vector<int64_t>> v = reader.GetIntVector(section, "edge_v");
  if (!v.ok()) return v.status();
  Result<std::vector<int64_t>> t = reader.GetIntVector(section, "edge_t");
  if (!t.ok()) return t.status();
  if (nodes.value() <= 0 || !FitsInt(nodes.value()) ||
      timestamps.value() <= 0 || !FitsInt(timestamps.value()) ||
      u.value().size() != v.value().size() ||
      u.value().size() != t.value().size())
    return Status::InvalidArgument("corrupt archive: inconsistent '" +
                                   section + "' graph section");
  Status bound = graphs::CheckShapeJustifiedByEdges(
      nodes.value(), timestamps.value(),
      static_cast<int64_t>(u.value().size()));
  if (!bound.ok())
    return Status::InvalidArgument("corrupt archive: '" + section +
                                   "' graph section " + bound.message());
  std::vector<graphs::TemporalEdge> edges;
  edges.reserve(u.value().size());
  for (size_t i = 0; i < u.value().size(); ++i) {
    graphs::TemporalEdge e;
    e.u = static_cast<graphs::NodeId>(u.value()[i]);
    e.v = static_cast<graphs::NodeId>(v.value()[i]);
    e.t = static_cast<graphs::Timestamp>(t.value()[i]);
    if (e.u < 0 || e.u >= nodes.value() || e.v < 0 ||
        e.v >= nodes.value() || e.t < 0 || e.t >= timestamps.value())
      return Status::InvalidArgument("corrupt archive: edge " +
                                     std::to_string(i) + " of section '" +
                                     section + "' is out of range");
    edges.push_back(e);
  }
  return graphs::TemporalGraph::FromEdges(static_cast<int>(nodes.value()),
                                          static_cast<int>(timestamps.value()),
                                          std::move(edges));
}

void ShapeOnlyGenerator::Fit(const graphs::TemporalGraph& observed,
                             Rng& /*rng*/) {
  shape_.CaptureFrom(observed);
}

Status ShapeOnlyGenerator::Update(const graphs::TemporalGraph& delta,
                                  Rng& /*rng*/) {
  Status ok = RequireUpdatable(shape_.num_nodes > 0, delta, shape_, name());
  if (!ok.ok()) return ok;
  MergeDeltaShape(shape_, delta);
  return Status::Ok();
}

Status ShapeOnlyGenerator::SaveState(std::ostream& out) const {
  Status fitted = RequireFitted(shape_.num_nodes > 0, name());
  if (!fitted.ok()) return fitted;
  serialize::ArchiveWriter writer(out);
  WriteShape(writer, shape_);
  return writer.Finish();
}

Status ShapeOnlyGenerator::LoadState(std::istream& in) {
  Result<serialize::ArchiveReader> reader =
      serialize::ArchiveReader::Parse(in);
  if (!reader.ok()) return reader.status();
  return ReadShape(reader.value(), shape_);
}

int64_t ShapeOnlyGenerator::ResidentStateBytes() const {
  return static_cast<int64_t>(sizeof(*this)) +
         static_cast<int64_t>(shape_.edges_per_timestamp.capacity() *
                              sizeof(int64_t));
}

Status SaveScoreState(const ObservedShape& shape,
                      const storage::ScoreStore& store, int64_t score_topk,
                      std::ostream& out, const std::string& method) {
  Status fitted = RequireFitted(shape.num_nodes > 0, method);
  if (!fitted.ok()) return fitted;
  TGSIM_CHECK_EQ(store.num_timestamps(), shape.num_timestamps);
  const bool inline_mode = !store.block_backed() &&
                           shape.num_nodes <= kInlineScoreNodeLimit &&
                           store.TotalNnz() <= kInlineScoreNnzLimit;
  serialize::ArchiveWriter writer(out);
  WriteShape(writer, shape);
  writer.BeginSection("score_store");
  writer.WriteInt("score_topk", score_topk);
  writer.WriteString("format", inline_mode ? "inline" : "blocks");
  if (inline_mode) {
    writer.BeginSection("sparse_scores");
    for (int t = 0; t < shape.num_timestamps; ++t) {
      if (!store.has(t)) continue;  // Edge-free snapshot.
      const storage::ScoreStore::Lease lease = store.Snapshot(t);
      storage::WriteSparseScores(writer, ScoreFieldName(t), lease.view);
    }
    return writer.Finish();
  }
  Status finished = writer.Finish();
  if (!finished.ok()) return finished;
  // Large models: snapshots ride as a trailing binary BlockFile so the
  // loader can mmap them per snapshot instead of materializing the lot.
  storage::BlockFileWriter blocks(out);
  for (int t = 0; t < shape.num_timestamps; ++t) {
    if (!store.has(t)) continue;
    const storage::ScoreStore::Lease lease = store.Snapshot(t);
    blocks.AddBlock(storage::ScoreBlockName(t),
                    storage::EncodeScoreBlock(lease.view));
  }
  return blocks.Finish();
}

namespace {

/// Every block of a score BlockFile must be named "t<k>" for a timestamp
/// with edges; anything else is corruption (or someone else's file).
Status CheckScoreBlockNames(const storage::BlockFileReader& reader,
                            const ObservedShape& shape) {
  for (const std::string& name : reader.BlockNames()) {
    int64_t t = -1;
    if (name.size() >= 2 && name[0] == 't') {
      t = 0;
      for (size_t i = 1; i < name.size(); ++i) {
        if (name[i] < '0' || name[i] > '9') {
          t = -1;
          break;
        }
        t = t * 10 + (name[i] - '0');
        if (t > std::numeric_limits<int>::max()) {
          t = -1;
          break;
        }
      }
    }
    if (t < 0 || t >= shape.num_timestamps ||
        shape.edges_per_timestamp[static_cast<size_t>(t)] == 0) {
      return Status::InvalidArgument(
          "corrupt archive: unexpected score block '" + name + "'");
    }
  }
  return Status::Ok();
}

}  // namespace

Status LoadScoreState(ObservedShape& shape, storage::ScoreStore& store,
                      std::istream& in, const std::string& path) {
  Result<serialize::ArchiveReader> parsed =
      serialize::ArchiveReader::Parse(in);
  if (!parsed.ok()) return parsed.status();
  const serialize::ArchiveReader& reader = parsed.value();
  ObservedShape loaded;
  Status s = ReadShape(reader, loaded);
  if (!s.ok()) return s;

  storage::ScoreStore loaded_store;
  Result<std::string> format = reader.GetString("score_store", "format");
  if (!format.ok()) return format.status();
  Result<int64_t> topk = reader.GetInt("score_store", "score_topk");
  if (!topk.ok()) return topk.status();
  if (format.value() == "inline") {
    loaded_store.Reset(loaded.num_timestamps);
    for (int t = 0; t < loaded.num_timestamps; ++t) {
      if (loaded.edges_per_timestamp[static_cast<size_t>(t)] == 0) continue;
      Result<storage::SparseScoreRows> rows = storage::ReadSparseScores(
          reader, "sparse_scores", ScoreFieldName(t));
      if (!rows.ok()) return rows.status();
      loaded_store.Set(t, std::move(rows).value());
    }
  } else if (format.value() == "blocks") {
    if (path.empty()) {
      return Status::InvalidArgument(
          "a blocks-format score state is read from its file; this one "
          "has no path");
    }
    // ArchiveReader::Parse extracts the final "end" token with >> and
    // leaves its trailing newline in the stream; the block writer took
    // its base offset *after* that newline, so consume it here.
    if (in.get() != '\n') {
      return Status::InvalidArgument(
          "corrupt archive: no score block payload after the state");
    }
    const auto base = in.tellg();
    if (base < 0) {
      return Status::IoError(
          "corrupt archive: cannot locate the score block payload");
    }
    Result<storage::BlockFileReader> blocks =
        storage::BlockFileReader::OpenFile(path, static_cast<int64_t>(base));
    // The stream contract leaves `in` past the state.
    in.seekg(0, std::ios::end);
    if (!blocks.ok()) return blocks.status();
    Status names = CheckScoreBlockNames(blocks.value(), loaded);
    if (!names.ok()) return names;
    Status sums = blocks.value().VerifyChecksums();
    if (!sums.ok()) return sums;
    loaded_store = storage::ScoreStore::FromBlockFile(
        std::move(blocks).value(), loaded.num_timestamps);
  } else {
    return Status::InvalidArgument(
        "corrupt archive: unknown score_store format '" + format.value() +
        "'");
  }

  for (int t = 0; t < loaded.num_timestamps; ++t) {
    if (loaded.edges_per_timestamp[static_cast<size_t>(t)] == 0) continue;
    if (!loaded_store.has(t)) {
      return Status::InvalidArgument(
          "corrupt archive: no scores for timestamp " + std::to_string(t));
    }
    Status check = loaded_store.CheckSnapshot(t, loaded.num_nodes);
    if (!check.ok()) {
      return Status::InvalidArgument("corrupt archive: " + check.message());
    }
  }
  shape = std::move(loaded);
  store = std::move(loaded_store);
  return Status::Ok();
}

graphs::TemporalGraph GenerateFromScores(const ObservedShape& shape,
                                         const storage::ScoreStore& store,
                                         Rng& rng) {
  TGSIM_CHECK_GT(shape.num_nodes, 0);  // Requires a Fit() or LoadState().
  TGSIM_CHECK_EQ(store.num_timestamps(), shape.num_timestamps);
  std::vector<graphs::TemporalEdge> out;
  for (int t = 0; t < shape.num_timestamps; ++t) {
    int64_t m_t = shape.edges_per_timestamp[static_cast<size_t>(t)];
    if (m_t == 0) continue;
    TGSIM_CHECK(store.has(t));  // Load validation guarantees presence.
    const storage::ScoreStore::Lease lease = store.Snapshot(t);
    SampleEdgesFromScores(lease.view, m_t, static_cast<graphs::Timestamp>(t),
                          rng, &out);
  }
  return graphs::TemporalGraph::FromEdges(shape.num_nodes,
                                          shape.num_timestamps,
                                          std::move(out));
}

storage::SparseScoreRows ScoreMatrixGenerator::FitSnapshotRows(
    const graphs::TemporalGraph& graph, int t, Rng& rng) const {
  auto span = graph.EdgesAt(static_cast<graphs::Timestamp>(t));
  SnapshotScores fitted = FitSnapshotScores(
      std::vector<graphs::TemporalEdge>(span.begin(), span.end()), rng);
  return storage::SparseScoreRows::FromSubmatrix(
      shape_.num_nodes, fitted.active, fitted.scores, score_topk_);
}

void ScoreMatrixGenerator::Fit(const graphs::TemporalGraph& observed,
                               Rng& rng) {
  shape_.CaptureFrom(observed);
  // Fit-once/serve-many: every snapshot model trains here, and only the
  // resulting sparse score rows are kept — Generate never sees the
  // training graph again.
  store_.Reset(shape_.num_timestamps);
  for (int t = 0; t < shape_.num_timestamps; ++t) {
    if (shape_.edges_per_timestamp[static_cast<size_t>(t)] == 0) continue;
    store_.Set(t, FitSnapshotRows(observed, t, rng));
  }
}

Status ScoreMatrixGenerator::Update(const graphs::TemporalGraph& delta,
                                    Rng& rng) {
  Status ok = RequireUpdatable(shape_.num_nodes > 0, delta, shape_, name());
  if (!ok.ok()) return ok;
  if (delta.num_edges() == 0) return Status::Ok();

  const std::vector<int64_t> delta_per_t = delta.EdgesPerTimestamp();
  std::vector<int> fresh;    // first edges at t: rows fitted from scratch
  std::vector<int> touched;  // already fitted at t: warm-start candidates
  for (size_t t = 0; t < delta_per_t.size(); ++t) {
    if (delta_per_t[t] == 0) continue;
    if (shape_.edges_per_timestamp[t] == 0)
      fresh.push_back(static_cast<int>(t));
    else
      touched.push_back(static_cast<int>(t));
  }

  // A block-backed store pages rows from the artifact file; updating
  // replaces rows, so rematerialize the snapshots resident first.
  if (store_.block_backed()) {
    storage::ScoreStore resident;
    resident.Reset(shape_.num_timestamps);
    for (int t = 0; t < shape_.num_timestamps; ++t) {
      if (!store_.has(t)) continue;
      const storage::ScoreStore::Lease lease = store_.Snapshot(t);
      resident.Set(t, storage::SparseScoreRows::CopyOf(lease.view));
    }
    store_ = std::move(resident);
  }

  // Snapshots gaining their first edges must be fitted: Generate requires
  // rows wherever the merged edge budget is positive.
  for (int t : fresh) store_.Set(t, FitSnapshotRows(delta, t, rng));
  // Previously-fitted snapshots take a bounded warm start, most recent
  // first; unselected ones keep their rows (only their budget grows).
  for (int t : SampleRecentSnapshots(touched, kUpdateWarmSnapshotLimit,
                                     shape_.num_timestamps, rng)) {
    const storage::SparseScoreRows delta_rows = FitSnapshotRows(delta, t, rng);
    storage::SparseScoreRows merged;
    {
      const storage::ScoreStore::Lease lease = store_.Snapshot(t);
      merged = storage::SparseScoreRows::WeightedMerge(
          lease.view,
          static_cast<double>(
              shape_.edges_per_timestamp[static_cast<size_t>(t)]),
          delta_rows.View(),
          static_cast<double>(delta_per_t[static_cast<size_t>(t)]),
          score_topk_);
    }
    store_.Set(t, std::move(merged));
  }
  MergeDeltaShape(shape_, delta);
  return Status::Ok();
}

graphs::TemporalGraph ScoreMatrixGenerator::Generate(Rng& rng) const {
  return GenerateFromScores(shape_, store_, rng);
}

Status ScoreMatrixGenerator::SaveState(std::ostream& out) const {
  return SaveScoreState(shape_, store_, score_topk_, out, name());
}

Status ScoreMatrixGenerator::LoadState(std::istream& in) {
  return LoadState(in, "");
}

Status ScoreMatrixGenerator::LoadState(std::istream& in,
                                       const std::string& path) {
  return LoadScoreState(shape_, store_, in, path);
}

int64_t ScoreMatrixGenerator::ResidentStateBytes() const {
  return static_cast<int64_t>(sizeof(*this)) + store_.ResidentBytes() +
         static_cast<int64_t>(shape_.edges_per_timestamp.capacity() *
                              sizeof(int64_t));
}

}  // namespace tgsim::baselines
