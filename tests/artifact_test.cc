#include "eval/artifact.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "config/param_map.h"
#include "datasets/synthetic.h"
#include "eval/registry.h"
#include "gtest/gtest.h"
#include "sampling/samplers.h"
#include "serialize/serialization.h"

namespace tgsim::eval {
namespace {

std::string Sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  return out;
}

std::string ArtifactPath(const std::string& tag) {
  return std::string(::testing::TempDir()) + "/tgsim_artifact_" +
         Sanitize(tag) + ".tgsim";
}

void ExpectGraphsIdentical(const graphs::TemporalGraph& a,
                           const graphs::TemporalGraph& b,
                           const std::string& label) {
  EXPECT_EQ(a.num_nodes(), b.num_nodes()) << label;
  EXPECT_EQ(a.num_timestamps(), b.num_timestamps()) << label;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << label;
  for (size_t i = 0; i < a.edges().size(); ++i)
    ASSERT_TRUE(a.edges()[i] == b.edges()[i])
        << label << ": edge " << i << " differs";
}

/// Fits `method` with the fast preset, destroys the training graph, saves
/// an artifact, reloads it, and pins that the loaded generator draws a
/// bit-identical graph — the acceptance contract of the artifact format.
void RoundTripMethod(const std::string& method) {
  config::ParamMap params;
  params.Override("preset", "fast");
  auto built = MakeGenerator(method, params);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::unique_ptr<baselines::TemporalGraphGenerator> fitted =
      std::move(built).value();

  // The observed graph lives only for the Fit call: everything after this
  // block — generation, saving, loading — must work without the training
  // data (the artifact's no-training-data-needed rule).
  {
    auto observed = std::make_unique<graphs::TemporalGraph>(
        datasets::MakeMimicByName("DBLP", 0.03, 21));
    Rng fit_rng(17);
    fitted->Fit(*observed, fit_rng);
  }

  std::string path = ArtifactPath(method);
  Status saved = SaveArtifact(*fitted, method, params, path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  Result<LoadedArtifact> loaded = LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().method, method);
  EXPECT_EQ(loaded.value().params.ToString(), params.ToString());

  Rng gen_a(99), gen_b(99);
  graphs::TemporalGraph a = fitted->Generate(gen_a);
  graphs::TemporalGraph b = loaded.value().generator->Generate(gen_b);
  ExpectGraphsIdentical(a, b, method);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Round trip over every registered main-table method.
// ---------------------------------------------------------------------------

class ArtifactRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ArtifactRoundTripTest, LoadedGeneratorIsBitIdenticalWithoutData) {
  RoundTripMethod(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ArtifactRoundTripTest,
    ::testing::ValuesIn(AllMethodNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return Sanitize(info.param);
    });

TEST(ArtifactAblationTest, TgaeAblationVariantsRoundTripToo) {
  // The ablation registrations share TgaeGenerator; pin one per family
  // knob (non-probabilistic decoder, chain ego-graphs).
  RoundTripMethod("TGAE-p");
  RoundTripMethod("TGAE-g");
}

// ---------------------------------------------------------------------------
// Fitted alias tables are derived state: TIGGER and DYMOND store only the
// sampling weights, and LoadState rebuilds the table from them.
// ---------------------------------------------------------------------------

/// Fits `method` with the fast preset on a small DBLP mimic and returns
/// its saved state.
std::string FittedState(const std::string& method,
                        baselines::TemporalGraphGenerator& gen) {
  graphs::TemporalGraph observed = datasets::MakeMimicByName("DBLP", 0.03, 21);
  Rng rng(17);
  gen.Fit(observed, rng);
  std::stringstream state;
  EXPECT_TRUE(gen.SaveState(state).ok()) << method;
  return state.str();
}

config::ParamMap FastPreset() {
  config::ParamMap params;
  params.Override("preset", "fast");
  return params;
}

/// The layout older states carried: `state` plus the fields
/// `<prefix>_prob`/`<prefix>_alias` of the alias table built from the
/// weight field `section.weight_field`, written right after that field.
std::string WithStoredAliasTable(const std::string& state,
                                 const std::string& section,
                                 const std::string& weight_field,
                                 const std::string& prefix) {
  std::stringstream in(state);
  Result<serialize::ArchiveReader> parsed =
      serialize::ArchiveReader::Parse(in);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sampling::AliasTable table(
      parsed.value().GetDoubleVector(section, weight_field).value());
  std::stringstream fields;
  serialize::ArchiveWriter writer(fields);
  writer.BeginSection(section);
  writer.WriteDoubleVector(prefix + "_prob", table.prob());
  writer.WriteIntVector(prefix + "_alias", table.alias());
  EXPECT_TRUE(writer.Finish().ok());
  // Keep the two field lines: drop the header, section line and `end`.
  std::string lines = fields.str();
  const std::string section_line = "section " + section + "\n";
  lines = lines.substr(lines.find(section_line) + section_line.size());
  lines = lines.substr(0, lines.rfind("end"));
  const size_t field = state.find("vf64 " + weight_field + " ");
  EXPECT_NE(field, std::string::npos);
  const size_t after = state.find('\n', field) + 1;
  return state.substr(0, after) + lines + state.substr(after);
}

/// Loads `method`'s state as saved and with a stored alias table, and
/// pins that both generate the fitted original's edges.
void ExpectStoredAliasTableIsIgnored(const std::string& method,
                                     const std::string& section,
                                     const std::string& weight_field,
                                     const std::string& prefix) {
  auto fitted = std::move(MakeGenerator(method, FastPreset())).value();
  const std::string state = FittedState(method, *fitted);
  EXPECT_EQ(state.find(prefix + "_prob"), std::string::npos)
      << "states store only the weights";
  const std::string with_table =
      WithStoredAliasTable(state, section, weight_field, prefix);
  ASSERT_NE(with_table.find(prefix + "_alias"), std::string::npos);

  Rng want_rng(99);
  const graphs::TemporalGraph want = fitted->Generate(want_rng);
  for (const std::string& bytes : {state, with_table}) {
    auto loaded = std::move(MakeGenerator(method, FastPreset())).value();
    std::stringstream in(bytes);
    Status s = loaded->LoadState(in);
    ASSERT_TRUE(s.ok()) << s.ToString();
    Rng rng(99);
    ExpectGraphsIdentical(want, loaded->Generate(rng), method);
  }
}

TEST(DerivedAliasTableTest, DymondStoredTableLoadsToTheSameEdges) {
  ExpectStoredAliasTableIsIgnored("DYMOND", "motifs", "node_activity",
                                  "activity");
}

TEST(DerivedAliasTableTest, TiggerStoredTableLoadsToTheSameEdges) {
  ExpectStoredAliasTableIsIgnored("TIGGER", "starts", "weight", "starts");
}

TEST(DerivedAliasTableTest, DymondZeroActivityMassIsInvalidArgument) {
  // Regression: rebuilding the alias table from zero total mass
  // CHECK-aborted the process inside LoadState.
  std::stringstream state;
  {
    serialize::ArchiveWriter writer(state);
    writer.BeginSection("shape");
    writer.WriteInt("num_nodes", 3);
    writer.WriteInt("num_timestamps", 1);
    writer.WriteIntVector("edges_per_timestamp", {0});
    writer.BeginSection("motifs");
    writer.WriteIntVector("triangles", {0});
    writer.WriteIntVector("wedges", {0});
    writer.WriteIntVector("singles", {0});
    writer.WriteDoubleVector("node_activity", {0.0, 0.0, 0.0});
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto gen = std::move(MakeGenerator("DYMOND")).value();
  Status s = gen->LoadState(state);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("node_activity"), std::string::npos)
      << s.ToString();
}

TEST(DerivedAliasTableTest, TiggerInfiniteStartWeightIsInvalidArgument) {
  // Regression: the start-weight check let an inf weight through, and the
  // rebuilt table drew from inf/inf = NaN slot probabilities.
  auto fitted = std::move(MakeGenerator("TIGGER", FastPreset())).value();
  std::string state = FittedState("TIGGER", *fitted);
  const std::string key = "vf64 weight ";
  const size_t count = state.find(key);
  ASSERT_NE(count, std::string::npos);
  const size_t first = state.find(' ', count + key.size()) + 1;
  state.replace(first, state.find_first_of(" \n", first) - first, "inf");

  auto gen = std::move(MakeGenerator("TIGGER", FastPreset())).value();
  std::stringstream in(state);
  Status s = gen->LoadState(in);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("not finite"), std::string::npos)
      << s.ToString();
}

// ---------------------------------------------------------------------------
// Error paths: every failure is a Status, never a crash.
// ---------------------------------------------------------------------------

TEST(ArtifactErrorTest, SaveBeforeFitIsInvalidArgument) {
  auto gen = std::move(MakeGenerator("E-R")).value();
  std::string path = ArtifactPath("unfitted");
  Status s = SaveArtifact(*gen, "E-R", {}, path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("Fit()"), std::string::npos) << s.ToString();
  // A failed save must not leave a half-written artifact (the descriptor
  // is written before the state error surfaces).
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ArtifactTest, ParamValuesWithWhitespaceRoundTrip) {
  // Overlay entries are stored as length-prefixed key/value bytes, one
  // field per entry — a value with whitespace (legal: ParamMap getters
  // trim before parsing) must survive the round trip. Regression: a
  // joined-and-resplit rendering saved fine and failed at load.
  config::ParamMap params;
  params.Override("preset", "fast");
  params.Override("epochs", " 1 ");
  params.Override("walks_per_epoch", "10");
  auto built = MakeGenerator("TIGGER", params);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto gen = std::move(built).value();
  {
    graphs::TemporalGraph observed =
        datasets::MakeMimicByName("DBLP", 0.03, 5);
    Rng rng(3);
    gen->Fit(observed, rng);
  }
  std::string path = ArtifactPath("whitespace_params");
  ASSERT_TRUE(SaveArtifact(*gen, "TIGGER", params, path).ok());
  Result<LoadedArtifact> loaded = LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded.value().params.FindRaw("epochs"), nullptr);
  EXPECT_EQ(*loaded.value().params.FindRaw("epochs"), " 1 ");
  Rng gen_a(4), gen_b(4);
  graphs::TemporalGraph a = gen->Generate(gen_a);
  graphs::TemporalGraph b = loaded.value().generator->Generate(gen_b);
  ExpectGraphsIdentical(a, b, "TIGGER whitespace params");
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, SaveUnknownMethodIsNotFoundWithSuggestion) {
  auto gen = std::move(MakeGenerator("E-R")).value();
  Status s = SaveArtifact(*gen, "E-Q", {}, ArtifactPath("unknown_save"));
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("E-R"), std::string::npos) << s.ToString();
}

TEST(ArtifactErrorTest, LoadMissingFileIsIoError) {
  EXPECT_EQ(LoadArtifact("/nonexistent/model.tgsim").status().code(),
            StatusCode::kIoError);
}

TEST(ArtifactErrorTest, LoadBadMagicIsInvalidArgument) {
  std::string path = ArtifactPath("bad_magic");
  std::ofstream(path) << "definitely not an artifact\n";
  Status s = LoadArtifact(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, LoadWrongArchiveVersionNamesBothVersions) {
  std::string path = ArtifactPath("bad_version");
  std::ofstream(path) << "tgsim-archive 999\nend\n";
  Status s = LoadArtifact(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("999"), std::string::npos) << s.ToString();
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, LoadWrongArtifactVersionIsInvalidArgument) {
  std::string path = ArtifactPath("bad_artifact_version");
  {
    std::ofstream out(path);
    serialize::ArchiveWriter writer(out);
    writer.BeginSection("artifact");
    writer.WriteInt("artifact_version", 999);
    writer.WriteString("method", "E-R");
    writer.WriteInt("param_count", 0);
    ASSERT_TRUE(writer.Finish().ok());
  }
  Status s = LoadArtifact(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("artifact version 999"), std::string::npos)
      << s.ToString();
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, LoadUnknownMethodIsNotFoundWithSuggestion) {
  std::string path = ArtifactPath("unknown_method");
  {
    std::ofstream out(path);
    serialize::ArchiveWriter writer(out);
    writer.BeginSection("artifact");
    writer.WriteInt("artifact_version", kArtifactVersion);
    writer.WriteString("method", "TGAF");
    writer.WriteInt("base_fit_seed", 0);
    writer.WriteInt("update_count", 0);
    writer.WriteInt("update_epochs", 0);
    writer.WriteInt("param_count", 0);
    ASSERT_TRUE(writer.Finish().ok());
  }
  Status s = LoadArtifact(path).status();
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("TGAE"), std::string::npos) << s.ToString();
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, LoadTruncatedArtifactIsAnErrorNotACrash) {
  // A real fitted artifact cut off mid-state must fail cleanly.
  auto gen = std::move(MakeGenerator("DYMOND")).value();
  {
    graphs::TemporalGraph observed =
        datasets::MakeMimicByName("DBLP", 0.03, 5);
    Rng rng(3);
    gen->Fit(observed, rng);
  }
  std::string path = ArtifactPath("truncated");
  ASSERT_TRUE(SaveArtifact(*gen, "DYMOND", {}, path).ok());
  auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 64u);
  std::filesystem::resize_file(path, size / 2);
  Status s = LoadArtifact(path).status();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  std::filesystem::remove(path);
}

/// Fits a score-matrix method whose fast-preset state is large enough to
/// ride as a trailing BlockFile, saves it, and returns the path.
std::string SaveBlockBackedArtifact(const std::string& tag) {
  config::ParamMap params;
  params.Override("preset", "fast");
  auto gen = std::move(MakeGenerator("NetGAN", params)).value();
  {
    graphs::TemporalGraph observed =
        datasets::MakeMimicByName("DBLP", 0.03, 5);
    Rng rng(3);
    gen->Fit(observed, rng);
  }
  std::string path = ArtifactPath(tag);
  EXPECT_TRUE(SaveArtifact(*gen, "NetGAN", params, path).ok());
  // The artifact really holds a block container (the corruption tests
  // below poke at its region).
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(bytes.find("tgsimblk"), std::string::npos);
  return path;
}

TEST(ArtifactErrorTest, TruncatedBlockPayloadIsAnErrorNotACrash) {
  std::string path = SaveBlockBackedArtifact("block_truncated");
  auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 256u);
  std::filesystem::resize_file(path, size - 128);
  Status s = LoadArtifact(path).status();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, FlippedBlockByteFailsTheChecksum) {
  std::string path = SaveBlockBackedArtifact("block_flipped");
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    std::string bytes((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
    // First byte of the first block: the first 8-aligned absolute offset
    // past the container's 16-byte header.
    const size_t base = bytes.find("tgsimblk");
    ASSERT_NE(base, std::string::npos);
    const size_t first_block = (base + 16 + 7) / 8 * 8;
    file.clear();
    file.seekp(static_cast<std::streamoff>(first_block));
    char flipped = static_cast<char>(bytes[first_block] ^ 0x4);
    file.write(&flipped, 1);
  }
  Status s = LoadArtifact(path).status();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.ToString();
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, WrongBlockContainerVersionIsInvalidArgument) {
  std::string path = SaveBlockBackedArtifact("block_version");
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    std::string bytes((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
    const size_t base = bytes.find("tgsimblk");
    ASSERT_NE(base, std::string::npos);
    const int64_t version = 99;
    file.clear();
    file.seekp(static_cast<std::streamoff>(base + 8));
    file.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  Status s = LoadArtifact(path).status();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.ToString();
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, DefaultSaveStateIsInvalidArgument) {
  // Custom registrations without persistence keep constructing and
  // running; only the artifact path reports Unimplemented-style errors.
  class NoStateGenerator : public baselines::TemporalGraphGenerator {
   public:
    std::string name() const override { return "custom"; }
    void Fit(const graphs::TemporalGraph&, Rng&) override {}
    graphs::TemporalGraph Generate(Rng&) override {
      graphs::TemporalGraph g(1, 1);
      g.Finalize();
      return g;
    }
  };
  NoStateGenerator gen;
  std::stringstream stream;
  EXPECT_EQ(gen.SaveState(stream).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gen.LoadState(stream).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tgsim::eval
