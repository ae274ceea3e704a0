#include "baselines/er_ba.h"

#include "baselines/state_io.h"

namespace tgsim::baselines {

namespace {

/// Shape-only fitted state shared by both model-based baselines.
Status SaveShapeOnlyState(const ObservedShape& shape, std::ostream& out,
                          const std::string& method) {
  Status fitted = RequireFitted(shape.num_nodes > 0, method);
  if (!fitted.ok()) return fitted;
  serialize::ArchiveWriter writer(out);
  WriteShape(writer, shape);
  return writer.Finish();
}

Status LoadShapeOnlyState(ObservedShape& shape, std::istream& in) {
  Result<serialize::ArchiveReader> reader =
      serialize::ArchiveReader::Parse(in);
  if (!reader.ok()) return reader.status();
  return ReadShape(reader.value(), shape);
}

/// Shape-only incremental update: the fitted state is exactly the edge
/// budget, so absorbing a delta is merging its per-timestamp counts.
Status UpdateShapeOnly(ObservedShape& shape,
                       const graphs::TemporalGraph& delta,
                       const std::string& method) {
  Status ok = RequireUpdatable(shape.num_nodes > 0, delta, shape, method);
  if (!ok.ok()) return ok;
  MergeDeltaShape(shape, delta);
  return Status::Ok();
}

int64_t ShapeOnlyResidentBytes(const ObservedShape& shape, size_t self) {
  return static_cast<int64_t>(self) +
         static_cast<int64_t>(shape.edges_per_timestamp.capacity() *
                              sizeof(int64_t));
}

}  // namespace

void ErdosRenyiGenerator::Fit(const graphs::TemporalGraph& observed,
                              Rng& /*rng*/) {
  shape_.CaptureFrom(observed);
}

Status ErdosRenyiGenerator::SaveState(std::ostream& out) const {
  return SaveShapeOnlyState(shape_, out, name());
}

Status ErdosRenyiGenerator::LoadState(std::istream& in) {
  return LoadShapeOnlyState(shape_, in);
}

Status ErdosRenyiGenerator::Update(const graphs::TemporalGraph& delta,
                                   Rng& /*rng*/) {
  return UpdateShapeOnly(shape_, delta, name());
}

int64_t ErdosRenyiGenerator::ResidentStateBytes() const {
  return ShapeOnlyResidentBytes(shape_, sizeof(*this));
}

graphs::TemporalGraph ErdosRenyiGenerator::Generate(Rng& rng) const {
  TGSIM_CHECK_GT(shape_.num_nodes, 0);
  graphs::TemporalGraph g(shape_.num_nodes, shape_.num_timestamps);
  const int n = shape_.num_nodes;
  for (int t = 0; t < shape_.num_timestamps; ++t) {
    for (int64_t e = 0; e < shape_.edges_per_timestamp[t]; ++e) {
      graphs::NodeId u =
          static_cast<graphs::NodeId>(rng.UniformInt(static_cast<int64_t>(n)));
      graphs::NodeId v =
          static_cast<graphs::NodeId>(rng.UniformInt(static_cast<int64_t>(n)));
      if (v == u) v = static_cast<graphs::NodeId>((v + 1) % n);
      g.AddEdge(u, v, static_cast<graphs::Timestamp>(t));
    }
  }
  g.Finalize();
  return g;
}

void BarabasiAlbertGenerator::Fit(const graphs::TemporalGraph& observed,
                                  Rng& /*rng*/) {
  shape_.CaptureFrom(observed);
}

Status BarabasiAlbertGenerator::SaveState(std::ostream& out) const {
  return SaveShapeOnlyState(shape_, out, name());
}

Status BarabasiAlbertGenerator::LoadState(std::istream& in) {
  return LoadShapeOnlyState(shape_, in);
}

Status BarabasiAlbertGenerator::Update(const graphs::TemporalGraph& delta,
                                       Rng& /*rng*/) {
  return UpdateShapeOnly(shape_, delta, name());
}

int64_t BarabasiAlbertGenerator::ResidentStateBytes() const {
  return ShapeOnlyResidentBytes(shape_, sizeof(*this));
}

graphs::TemporalGraph BarabasiAlbertGenerator::Generate(Rng& rng) const {
  TGSIM_CHECK_GT(shape_.num_nodes, 0);
  graphs::TemporalGraph g(shape_.num_nodes, shape_.num_timestamps);
  const int n = shape_.num_nodes;
  std::vector<graphs::NodeId> pool;  // Endpoint multiset (degree-prop).
  pool.reserve(static_cast<size_t>(2 * shape_.total_edges()));
  for (int t = 0; t < shape_.num_timestamps; ++t) {
    for (int64_t e = 0; e < shape_.edges_per_timestamp[t]; ++e) {
      graphs::NodeId u =
          static_cast<graphs::NodeId>(rng.UniformInt(static_cast<int64_t>(n)));
      graphs::NodeId v;
      if (!pool.empty() && rng.Bernoulli(0.9)) {
        v = pool[static_cast<size_t>(
            rng.UniformInt(static_cast<int64_t>(pool.size())))];
      } else {
        v = static_cast<graphs::NodeId>(
            rng.UniformInt(static_cast<int64_t>(n)));
      }
      if (v == u) v = static_cast<graphs::NodeId>((v + 1) % n);
      g.AddEdge(u, v, static_cast<graphs::Timestamp>(t));
      pool.push_back(u);
      pool.push_back(v);
    }
  }
  g.Finalize();
  return g;
}

}  // namespace tgsim::baselines
