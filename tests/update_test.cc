#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/generator.h"
#include "baselines/state_io.h"
#include "baselines/tigger.h"
#include "common/check.h"
#include "config/param_map.h"
#include "datasets/synthetic.h"
#include "eval/artifact.h"
#include "eval/registry.h"
#include "graph/ego_sampler.h"
#include "graph/temporal_graph.h"
#include "gtest/gtest.h"
#include "metrics/degree_mmd.h"
#include "serialize/serialization.h"

namespace tgsim {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// The observed stream every update test splits: one mimic dataset, fit
/// either on all of it or on the first half with the second half arriving
/// later as an Update(delta) batch.
graphs::TemporalGraph Observed() {
  static const graphs::TemporalGraph* kGraph = new graphs::TemporalGraph(
      datasets::MakeMimicByName("DBLP", 0.05, 21));
  return *kGraph;
}

/// Edges of `g` with t < split (keep = true) or t >= split (keep = false),
/// on g's full node/timestamp canvas — the delta stays within the fitted
/// shape, which is the Update contract (growth needs a full refit).
graphs::TemporalGraph Half(const graphs::TemporalGraph& g, int split,
                           bool first) {
  std::vector<graphs::TemporalEdge> edges;
  for (const graphs::TemporalEdge& e : g.edges())
    if ((e.t < split) == first) edges.push_back(e);
  return graphs::TemporalGraph::FromEdges(g.num_nodes(), g.num_timestamps(),
                                          std::move(edges));
}

std::unique_ptr<baselines::TemporalGraphGenerator> MakeFast(
    const std::string& name) {
  config::ParamMap params;
  params.Override("preset", "fast");
  auto gen = eval::MakeGenerator(name, params);
  TGSIM_CHECK(gen.ok());
  return std::move(gen).value();
}

/// `g` split on its own canvas into a fit part and a delta: the delta
/// holds every edge at t >= T/2 plus every fourth earlier edge, so it both
/// opens snapshots the fit never saw and adds to snapshots it did.
std::pair<graphs::TemporalGraph, graphs::TemporalGraph> SplitWithOverlap(
    const graphs::TemporalGraph& g) {
  const int split = g.num_timestamps() / 2;
  std::vector<graphs::TemporalEdge> fit, delta;
  int64_t earlier = 0;
  for (const graphs::TemporalEdge& e : g.edges()) {
    const bool to_delta = e.t >= split || earlier++ % 4 == 0;
    (to_delta ? delta : fit).push_back(e);
  }
  return {graphs::TemporalGraph::FromEdges(g.num_nodes(), g.num_timestamps(),
                                           std::move(fit)),
          graphs::TemporalGraph::FromEdges(g.num_nodes(), g.num_timestamps(),
                                           std::move(delta))};
}

std::string EdgeBytes(const graphs::TemporalGraph& g) {
  std::string out;
  for (const graphs::TemporalEdge& e : g.edges()) {
    out += std::to_string(e.u) + " " + std::to_string(e.v) + " " +
           std::to_string(e.t) + "\n";
  }
  return out;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------------
// The incremental-fit contract, parameterized over every main-table method.
// ---------------------------------------------------------------------------

class UpdateContractTest : public ::testing::TestWithParam<std::string> {};

// Headline pin: fitting the first half and absorbing the second half via
// Update lands within a tested MMD tolerance of fitting the full stream,
// on the degree-distribution metric.
TEST_P(UpdateContractTest, FitHalfPlusUpdateTracksFullFitWithinTolerance) {
  graphs::TemporalGraph observed = Observed();
  const int split = observed.num_timestamps() / 2;
  graphs::TemporalGraph first = Half(observed, split, true);
  graphs::TemporalGraph delta = Half(observed, split, false);
  ASSERT_GT(first.num_edges(), 0);
  ASSERT_GT(delta.num_edges(), 0);

  auto full = MakeFast(GetParam());
  Rng full_rng(17);
  full->Fit(observed, full_rng);
  graphs::TemporalGraph full_out = full->Generate(full_rng);

  auto incremental = MakeFast(GetParam());
  Rng inc_rng(17);
  incremental->Fit(first, inc_rng);
  Status updated = incremental->Update(delta, inc_rng);
  ASSERT_TRUE(updated.ok()) << GetParam() << ": " << updated.ToString();
  graphs::TemporalGraph inc_out = incremental->Generate(inc_rng);

  // The update restores the full edge budget, so the generated stream has
  // the full stream's size — not the half fit's.
  EXPECT_EQ(inc_out.num_edges(), observed.num_edges()) << GetParam();

  const double mmd_full = metrics::DegreeMmd(observed, full_out);
  const double mmd_inc = metrics::DegreeMmd(observed, inc_out);
  // Warm starts are not bit-equal to a full refit; they must stay in the
  // same quality band. Tolerance covers every method's worst case with
  // headroom (the statistical family's closed-form merges are near-exact).
  EXPECT_LE(mmd_inc, mmd_full + 0.15)
      << GetParam() << ": full " << mmd_full << " incremental " << mmd_inc;
}

// An empty delta is a no-op: the post-update generator byte-reproduces the
// pre-update one on the same seed.
TEST_P(UpdateContractTest, EmptyDeltaIsANoOp) {
  graphs::TemporalGraph observed = Observed();
  auto gen = MakeFast(GetParam());
  Rng fit_rng(11);
  gen->Fit(observed, fit_rng);
  Rng before_rng(7);
  const std::string before = EdgeBytes(gen->Generate(before_rng));

  graphs::TemporalGraph empty = graphs::TemporalGraph::FromEdges(
      observed.num_nodes(), observed.num_timestamps(), {});
  Rng update_rng(3);
  Status updated = gen->Update(empty, update_rng);
  ASSERT_TRUE(updated.ok()) << GetParam() << ": " << updated.ToString();

  Rng after_rng(7);
  EXPECT_EQ(EdgeBytes(gen->Generate(after_rng)), before) << GetParam();
}

// A delta that grows either axis of the fitted universe needs a full
// refit; Update must reject it rather than guess.
TEST_P(UpdateContractTest, GrowingDeltaIsInvalidArgument) {
  graphs::TemporalGraph observed = Observed();
  auto gen = MakeFast(GetParam());
  Rng rng(11);
  gen->Fit(observed, rng);

  graphs::TemporalGraph more_nodes = graphs::TemporalGraph::FromEdges(
      observed.num_nodes() + 1, observed.num_timestamps(),
      {{0, 1, 0}});
  EXPECT_EQ(gen->Update(more_nodes, rng).code(),
            StatusCode::kInvalidArgument)
      << GetParam();

  graphs::TemporalGraph more_time = graphs::TemporalGraph::FromEdges(
      observed.num_nodes(), observed.num_timestamps() + 1, {{0, 1, 0}});
  EXPECT_EQ(gen->Update(more_time, rng).code(), StatusCode::kInvalidArgument)
      << GetParam();
}

// Update without a prior Fit/LoadState is the uniform InvalidArgument.
TEST_P(UpdateContractTest, UpdateBeforeFitIsInvalidArgument) {
  auto gen = MakeFast(GetParam());
  graphs::TemporalGraph delta =
      graphs::TemporalGraph::FromEdges(4, 2, {{0, 1, 0}});
  Rng rng(11);
  Status s = gen->Update(delta, rng);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << GetParam();
  EXPECT_NE(s.message().find("Fit"), std::string::npos) << s.ToString();
}

// An updated generator round-trips through Save/Load bit-identically:
// the reloaded artifact generates the same bytes, and re-saving it
// reproduces the file exactly (lineage included).
TEST_P(UpdateContractTest, UpdatedArtifactRoundTripsBitIdentically) {
  graphs::TemporalGraph observed = Observed();
  const int split = observed.num_timestamps() / 2;
  auto gen = MakeFast(GetParam());
  Rng rng(29);
  gen->Fit(Half(observed, split, true), rng);
  ASSERT_TRUE(gen->Update(Half(observed, split, false), rng).ok());

  config::ParamMap params;
  params.Override("preset", "fast");
  eval::UpdateLineage lineage;
  lineage.base_fit_seed = 29;
  lineage.update_count = 1;
  lineage.update_epochs = baselines::kUpdateWarmSnapshotLimit;

  const std::string path = TempPath("update_rt_" + GetParam() + ".tgsim");
  Status saved = eval::SaveArtifact(*gen, GetParam(), params, path, lineage);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  Result<eval::LoadedArtifact> loaded = eval::LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().lineage.base_fit_seed, 29u);
  EXPECT_EQ(loaded.value().lineage.update_count, 1);
  EXPECT_EQ(loaded.value().lineage.update_epochs,
            baselines::kUpdateWarmSnapshotLimit);

  Rng a(5), b(5);
  EXPECT_EQ(EdgeBytes(loaded.value().generator->Generate(a)),
            EdgeBytes(gen->Generate(b)))
      << GetParam();

  const std::string again = TempPath("update_rt2_" + GetParam() + ".tgsim");
  Status resaved = eval::SaveArtifact(*loaded.value().generator, GetParam(),
                                      params, again, lineage);
  ASSERT_TRUE(resaved.ok()) << resaved.ToString();
  EXPECT_EQ(FileBytes(path), FileBytes(again)) << GetParam();
  std::filesystem::remove(path);
  std::filesystem::remove(again);
}

INSTANTIATE_TEST_SUITE_P(
    UpdatableMethods, UpdateContractTest,
    ::testing::ValuesIn(eval::AllMethodNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---------------------------------------------------------------------------
// eval::UpdateArtifact: the update rule `tgsim update` and the daemon share.
// ---------------------------------------------------------------------------

TEST(UpdateArtifactTest, CountsOneUpdateAndLeavesTheLineageOnError) {
  graphs::TemporalGraph observed = Observed();
  const int split = observed.num_timestamps() / 2;
  eval::LoadedArtifact artifact;
  artifact.method = "E-R";
  artifact.generator = MakeFast("E-R");
  Rng fit_rng(3);
  artifact.generator->Fit(Half(observed, split, true), fit_rng);
  artifact.lineage.base_fit_seed = 3;

  graphs::TemporalGraph more_nodes = graphs::TemporalGraph::FromEdges(
      observed.num_nodes() + 1, observed.num_timestamps(), {{0, 1, 0}});
  EXPECT_EQ(eval::UpdateArtifact(artifact, more_nodes, 7).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(artifact.lineage.base_fit_seed, 3u);
  EXPECT_EQ(artifact.lineage.update_count, 0);
  EXPECT_EQ(artifact.lineage.update_epochs, 0);

  for (int64_t n = 1; n <= 2; ++n) {
    Status updated =
        eval::UpdateArtifact(artifact, Half(observed, split, false), 7);
    ASSERT_TRUE(updated.ok()) << updated.ToString();
    EXPECT_EQ(artifact.lineage.base_fit_seed, 3u);
    EXPECT_EQ(artifact.lineage.update_count, n);
    EXPECT_EQ(artifact.lineage.update_epochs,
              n * baselines::kUpdateWarmSnapshotLimit);
  }
}

// ---------------------------------------------------------------------------
// Family-specific merges.
// ---------------------------------------------------------------------------

/// The walk-start occurrences (node, time) a fitted TIGGER stores, in
/// stored order, with their weights.
struct StoredStarts {
  std::vector<int64_t> node;
  std::vector<int64_t> time;
  std::vector<double> weight;
};

StoredStarts SavedStarts(const baselines::TemporalGraphGenerator& gen) {
  std::stringstream state;
  EXPECT_TRUE(gen.SaveState(state).ok());
  Result<serialize::ArchiveReader> reader =
      serialize::ArchiveReader::Parse(state);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  StoredStarts starts;
  if (!reader.ok()) return starts;
  starts.node = reader.value().GetIntVector("starts", "node").value();
  starts.time = reader.value().GetIntVector("starts", "time").value();
  starts.weight = reader.value().GetDoubleVector("starts", "weight").value();
  return starts;
}

// TIGGER's Update merges the delta's walk starts into the fitted start
// distribution: fitted occurrences keep their positions and gain the
// delta's temporal-degree mass, and new occurrences are appended in the
// delta's enumeration order.
TEST(TiggerUpdateTest, MergedStartsKeepFittedPositionsAndAppendNewOnes) {
  const auto [fit, delta] = SplitWithOverlap(Observed());
  auto gen = MakeFast("TIGGER");
  Rng rng(31);
  gen->Fit(fit, rng);
  const StoredStarts fitted = SavedStarts(*gen);
  ASSERT_TRUE(gen->Update(delta, rng).ok());

  StoredStarts want = fitted;
  std::map<std::pair<int64_t, int64_t>, size_t> position;
  for (size_t i = 0; i < fitted.node.size(); ++i)
    position[{fitted.node[i], fitted.time[i]}] = i;
  const graphs::InitialNodeSampler delta_starts(
      &delta, baselines::TiggerConfig().time_window);
  int gained = 0;
  int appended = 0;
  for (size_t j = 0; j < delta_starts.occurrences().size(); ++j) {
    const graphs::TemporalNodeRef occ = delta_starts.occurrences()[j];
    const double w = delta_starts.weights()[j];
    const auto [it, inserted] =
        position.emplace(std::make_pair(occ.node, occ.t), want.node.size());
    if (inserted) {
      want.node.push_back(occ.node);
      want.time.push_back(occ.t);
      want.weight.push_back(w);
      ++appended;
    } else {
      want.weight[it->second] += w;
      ++gained;
    }
  }
  ASSERT_GT(gained, 0);
  ASSERT_GT(appended, 0);

  const StoredStarts merged = SavedStarts(*gen);
  EXPECT_EQ(merged.node, want.node);
  EXPECT_EQ(merged.time, want.time);
  EXPECT_EQ(merged.weight, want.weight);
}

// A score model whose artifact holds its rows as a BlockFile loads
// block-backed (the rows stay mmap'd from the file), so its Update first
// rematerializes them resident. It must land on the same state as the
// same update of the resident model the artifact was saved from.
TEST(ScoreUpdateTest, BlockBackedModelUpdatesLikeTheResidentOne) {
  const graphs::TemporalGraph mimic =
      datasets::MakeMimicByName("DBLP", 0.03, 21);
  // More nodes than kInlineScoreNodeLimit: the scores save as blocks.
  const auto [fit, delta] = SplitWithOverlap(graphs::TemporalGraph::FromEdges(
      5000, mimic.num_timestamps(), mimic.edges()));
  auto resident = MakeFast("VGAE");
  Rng fit_rng(17);
  resident->Fit(fit, fit_rng);
  config::ParamMap params;
  params.Override("preset", "fast");
  const std::string path = TempPath("update_block_backed.tgsim");
  Status saved = eval::SaveArtifact(*resident, "VGAE", params, path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  ASSERT_NE(FileBytes(path).find("tgsimblk"), std::string::npos);
  Result<eval::LoadedArtifact> loaded = eval::LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Rng block_rng(23), resident_rng(23);
  Status updated = loaded.value().generator->Update(delta, block_rng);
  ASSERT_TRUE(updated.ok()) << updated.ToString();
  ASSERT_TRUE(resident->Update(delta, resident_rng).ok());
  std::stringstream from_blocks, from_resident;
  ASSERT_TRUE(loaded.value().generator->SaveState(from_blocks).ok());
  ASSERT_TRUE(resident->SaveState(from_resident).ok());
  EXPECT_EQ(from_blocks.str(), from_resident.str());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tgsim
