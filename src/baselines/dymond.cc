#include "baselines/dymond.h"

#include <algorithm>

#include "baselines/state_io.h"
#include "metrics/graph_stats.h"

namespace tgsim::baselines {

DymondGenerator::MotifMix DymondGenerator::EstimateMix(
    const graphs::StaticGraph& snap, int64_t m_t) {
  MotifMix mm;
  if (m_t == 0) return mm;
  int64_t triangles = metrics::TriangleCount(snap);
  // Wedges not inside triangles approximate the wedge-motif budget.
  double wedge_total = 0.0;
  for (graphs::NodeId u = 0; u < snap.num_nodes(); ++u) {
    double d = snap.Degree(u);
    wedge_total += d * (d - 1) / 2.0;
  }
  int64_t open_wedges =
      std::max<int64_t>(0, static_cast<int64_t>(wedge_total) - 3 * triangles);

  // Edge budget split: each placed triangle spends 3 edges, each wedge 2.
  mm.triangles = std::min<int64_t>(triangles, m_t / 3);
  int64_t remaining = m_t - 3 * mm.triangles;
  mm.wedges = std::min<int64_t>(open_wedges / 2, remaining / 2);
  remaining -= 2 * mm.wedges;
  mm.singles = remaining;
  return mm;
}

void DymondGenerator::Fit(const graphs::TemporalGraph& observed, Rng& /*rng*/) {
  shape_.CaptureFrom(observed);
  mix_.assign(static_cast<size_t>(shape_.num_timestamps), {});

  for (int t = 0; t < shape_.num_timestamps; ++t) {
    mix_[static_cast<size_t>(t)] =
        EstimateMix(observed.SnapshotAt(t), shape_.edges_per_timestamp[t]);
  }

  // Activity rates from accumulated degrees (DYMOND's node arrival rates).
  graphs::StaticGraph whole =
      observed.SnapshotUpTo(shape_.num_timestamps - 1);
  node_activity_.assign(static_cast<size_t>(shape_.num_nodes), 0.0);
  for (graphs::NodeId u = 0; u < shape_.num_nodes; ++u)
    node_activity_[static_cast<size_t>(u)] = whole.Degree(u) + 0.25;
  RebuildActivitySampler();
}

void DymondGenerator::RebuildActivitySampler() {
  activity_alias_ = sampling::AliasTable(node_activity_);
}

Status DymondGenerator::Update(const graphs::TemporalGraph& delta,
                               Rng& /*rng*/) {
  Status ok = RequireUpdatable(shape_.num_nodes > 0, delta, shape_, name());
  if (!ok.ok()) return ok;
  if (delta.num_edges() == 0) return Status::Ok();

  // Motif budgets are additive across batches: the delta snapshot's mix
  // rides on top of the fitted one.
  const std::vector<int64_t> delta_per_t = delta.EdgesPerTimestamp();
  for (size_t t = 0; t < delta_per_t.size(); ++t) {
    if (delta_per_t[t] == 0) continue;
    MotifMix dm =
        EstimateMix(delta.SnapshotAt(static_cast<int>(t)), delta_per_t[t]);
    mix_[t].triangles += dm.triangles;
    mix_[t].wedges += dm.wedges;
    mix_[t].singles += dm.singles;
  }

  // Activity rates accumulate degree mass; the +0.25 floor is already in
  // the fitted weights, so the delta adds raw degrees only. The alias
  // table rebuild is deterministic from the merged weights.
  graphs::StaticGraph whole = delta.SnapshotUpTo(delta.num_timestamps() - 1);
  for (graphs::NodeId u = 0; u < delta.num_nodes(); ++u)
    node_activity_[static_cast<size_t>(u)] += whole.Degree(u);
  RebuildActivitySampler();
  MergeDeltaShape(shape_, delta);
  return Status::Ok();
}

int64_t DymondGenerator::ResidentStateBytes() const {
  return static_cast<int64_t>(sizeof(*this)) +
         static_cast<int64_t>(shape_.edges_per_timestamp.capacity() *
                              sizeof(int64_t)) +
         static_cast<int64_t>(mix_.capacity() * sizeof(MotifMix)) +
         static_cast<int64_t>(node_activity_.capacity() * sizeof(double)) +
         static_cast<int64_t>(activity_alias_.prob().capacity() *
                              sizeof(double)) +
         static_cast<int64_t>(activity_alias_.alias().capacity() *
                              sizeof(int64_t));
}

Status DymondGenerator::SaveState(std::ostream& out) const {
  Status fitted = RequireFitted(shape_.num_nodes > 0, name());
  if (!fitted.ok()) return fitted;
  serialize::ArchiveWriter writer(out);
  WriteShape(writer, shape_);
  writer.BeginSection("motifs");
  std::vector<int64_t> triangles, wedges, singles;
  for (const MotifMix& mm : mix_) {
    triangles.push_back(mm.triangles);
    wedges.push_back(mm.wedges);
    singles.push_back(mm.singles);
  }
  writer.WriteIntVector("triangles", triangles);
  writer.WriteIntVector("wedges", wedges);
  writer.WriteIntVector("singles", singles);
  writer.WriteDoubleVector("node_activity", node_activity_);
  return writer.Finish();
}

Status DymondGenerator::LoadState(std::istream& in) {
  Result<serialize::ArchiveReader> parsed =
      serialize::ArchiveReader::Parse(in);
  if (!parsed.ok()) return parsed.status();
  const serialize::ArchiveReader& reader = parsed.value();
  ObservedShape shape;
  Status s = ReadShape(reader, shape);
  if (!s.ok()) return s;
  Result<std::vector<int64_t>> triangles =
      reader.GetIntVector("motifs", "triangles");
  if (!triangles.ok()) return triangles.status();
  Result<std::vector<int64_t>> wedges =
      reader.GetIntVector("motifs", "wedges");
  if (!wedges.ok()) return wedges.status();
  Result<std::vector<int64_t>> singles =
      reader.GetIntVector("motifs", "singles");
  if (!singles.ok()) return singles.status();
  Result<std::vector<double>> activity =
      reader.GetDoubleVector("motifs", "node_activity");
  if (!activity.ok()) return activity.status();
  const size_t t_count = static_cast<size_t>(shape.num_timestamps);
  if (triangles.value().size() != t_count ||
      wedges.value().size() != t_count ||
      singles.value().size() != t_count ||
      activity.value().size() != static_cast<size_t>(shape.num_nodes))
    return Status::InvalidArgument(
        "corrupt archive: DYMOND motif sections disagree with the shape");
  s = sampling::ValidateWeights(activity.value());
  if (!s.ok())
    return Status::InvalidArgument("corrupt archive: DYMOND node_activity: " +
                                   s.message());

  shape_ = std::move(shape);
  mix_.assign(t_count, {});
  for (size_t t = 0; t < t_count; ++t) {
    mix_[t].triangles = triangles.value()[t];
    mix_[t].wedges = wedges.value()[t];
    mix_[t].singles = singles.value()[t];
  }
  node_activity_ = std::move(activity).value();
  // The alias table is derived state: the build is deterministic and the
  // weights round-trip exactly, so the rebuilt table is the fitted one.
  RebuildActivitySampler();
  return Status::Ok();
}

graphs::TemporalGraph DymondGenerator::Generate(Rng& rng) {
  TGSIM_CHECK_GT(shape_.num_nodes, 0);
  graphs::TemporalGraph g(shape_.num_nodes, shape_.num_timestamps);

  auto draw_node = [&]() -> graphs::NodeId {
    return static_cast<graphs::NodeId>(activity_alias_.Draw(rng));
  };
  auto draw_distinct = [&](graphs::NodeId a) {
    graphs::NodeId b = draw_node();
    for (int i = 0; i < 4 && b == a; ++i) b = draw_node();
    if (b == a) b = static_cast<graphs::NodeId>((a + 1) % shape_.num_nodes);
    return b;
  };

  for (int t = 0; t < shape_.num_timestamps; ++t) {
    const MotifMix& mm = mix_[static_cast<size_t>(t)];
    auto ts = static_cast<graphs::Timestamp>(t);
    for (int64_t i = 0; i < mm.triangles; ++i) {
      graphs::NodeId a = draw_node();
      graphs::NodeId b = draw_distinct(a);
      graphs::NodeId c = draw_distinct(b);
      if (c == a) c = draw_distinct(a == b ? a : b);
      g.AddEdge(a, b, ts);
      g.AddEdge(b, c, ts);
      g.AddEdge(c, a, ts);
    }
    for (int64_t i = 0; i < mm.wedges; ++i) {
      graphs::NodeId center = draw_node();
      g.AddEdge(center, draw_distinct(center), ts);
      g.AddEdge(center, draw_distinct(center), ts);
    }
    for (int64_t i = 0; i < mm.singles; ++i) {
      graphs::NodeId a = draw_node();
      g.AddEdge(a, draw_distinct(a), ts);
    }
  }
  g.Finalize();
  return g;
}

}  // namespace tgsim::baselines
