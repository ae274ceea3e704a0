#include "serialize/serialization.h"

#include <cmath>
#include <filesystem>
#include <limits>
#include <locale>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/tgae.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "gtest/gtest.h"

namespace tgsim::core {
namespace {

using serialize::ArchiveReader;
using serialize::ArchiveWriter;

/// Gives each test its own scratch directory under the gtest temp root and
/// removes it afterwards, so round-trip tests never observe each other's
/// files (or stale ones from a previous run).
class TempDirFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("tgsim_") + info->test_suite_name() + "_" +
            info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

class TemporalGraphIoTest : public TempDirFixture {};

// ---------------------------------------------------------------------------
// Sectioned archive (ArchiveWriter / ArchiveReader).
// ---------------------------------------------------------------------------

TEST(ArchiveTest, RoundTripsEveryFieldKind) {
  Rng rng(6);
  nn::Tensor tensor = nn::Tensor::Randn(rng, 3, 2);
  std::stringstream stream;
  ArchiveWriter writer(stream);
  writer.BeginSection("alpha");
  writer.WriteInt("count", -42);
  writer.WriteDouble("rate", 0.12345678901234567);
  writer.WriteString("label", "two words\nand a newline");
  writer.WriteIntVector("ids", {1, -2, 3});
  writer.WriteDoubleVector("weights", {0.5, 1.5});
  writer.BeginSection("beta");
  writer.WriteTensor("w", tensor);
  ASSERT_TRUE(writer.Finish().ok());

  Result<ArchiveReader> parsed = ArchiveReader::Parse(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ArchiveReader& reader = parsed.value();
  EXPECT_EQ(reader.SectionNames(),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(reader.GetInt("alpha", "count").value(), -42);
  EXPECT_DOUBLE_EQ(reader.GetDouble("alpha", "rate").value(),
                   0.12345678901234567);
  EXPECT_EQ(reader.GetString("alpha", "label").value(),
            "two words\nand a newline");
  EXPECT_EQ(reader.GetIntVector("alpha", "ids").value(),
            (std::vector<int64_t>{1, -2, 3}));
  EXPECT_EQ(reader.GetDoubleVector("alpha", "weights").value(),
            (std::vector<double>{0.5, 1.5}));
  nn::Tensor loaded = reader.GetTensor("beta", "w").value();
  ASSERT_TRUE(loaded.SameShape(tensor));
  for (int64_t i = 0; i < tensor.size(); ++i)
    EXPECT_DOUBLE_EQ(loaded.data()[i], tensor.data()[i]);
}

TEST(ArchiveTest, RoundTripsNonFiniteDoubles) {
  // A diverged model (NaN/Inf weights) must still round-trip: operator<<
  // emits "nan"/"inf" tokens, and the reader parses them with from_chars
  // (classic-locale stream extraction would reject them as truncation).
  const double inf = std::numeric_limits<double>::infinity();
  nn::Tensor tensor(1, 3);
  tensor.at(0, 0) = std::numeric_limits<double>::quiet_NaN();
  tensor.at(0, 1) = inf;
  tensor.at(0, 2) = -inf;
  std::stringstream stream;
  ArchiveWriter writer(stream);
  writer.BeginSection("s");
  writer.WriteTensor("w", tensor);
  writer.WriteDouble("d", -inf);
  ASSERT_TRUE(writer.Finish().ok());

  Result<ArchiveReader> parsed = ArchiveReader::Parse(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  nn::Tensor loaded = parsed.value().GetTensor("s", "w").value();
  EXPECT_TRUE(std::isnan(loaded.at(0, 0)));
  EXPECT_EQ(loaded.at(0, 1), inf);
  EXPECT_EQ(loaded.at(0, 2), -inf);
  EXPECT_EQ(parsed.value().GetDouble("s", "d").value(), -inf);
}

TEST(ArchiveTest, SupportsTrailingPayloadAfterEnd) {
  // SaveArtifact writes the descriptor archive, then the generator's own
  // archive in the same stream: Parse must stop at `end`.
  std::stringstream stream;
  ArchiveWriter writer(stream);
  writer.BeginSection("s");
  writer.WriteInt("x", 1);
  ASSERT_TRUE(writer.Finish().ok());
  stream << "trailing payload";
  Result<ArchiveReader> parsed = ArchiveReader::Parse(stream);
  ASSERT_TRUE(parsed.ok());
  std::string rest;
  std::getline(stream >> std::ws, rest);
  EXPECT_EQ(rest, "trailing payload");
}

TEST(ArchiveTest, MissingFieldIsNotFoundAndWrongTypeIsInvalid) {
  std::stringstream stream;
  ArchiveWriter writer(stream);
  writer.BeginSection("s");
  writer.WriteInt("x", 1);
  ASSERT_TRUE(writer.Finish().ok());
  Result<ArchiveReader> parsed = ArchiveReader::Parse(stream);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetInt("s", "missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(parsed.value().GetInt("nope", "x").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(parsed.value().GetDouble("s", "x").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ArchiveTest, RejectsBadMagicVersionMismatchAndTruncation) {
  {
    std::stringstream stream("not-an-archive 1\nend\n");
    EXPECT_EQ(ArchiveReader::Parse(stream).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::stringstream stream("tgsim-archive 999\nend\n");
    Status s = ArchiveReader::Parse(stream).status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("version 999"), std::string::npos);
  }
  {
    // No `end` terminator: a partially written file must not parse.
    std::stringstream stream("tgsim-archive 1\nsection s\ni64 x 1\n");
    Status s = ArchiveReader::Parse(stream).status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("truncated"), std::string::npos);
  }
  {
    // Vector cut off mid-payload.
    std::stringstream stream("tgsim-archive 1\nsection s\nvi64 v 3 1 2");
    EXPECT_EQ(ArchiveReader::Parse(stream).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Parameter sets (WriteParams / ReadParamsInto).
// ---------------------------------------------------------------------------

/// Writes `params` as section "params" and parses the archive back.
ArchiveReader ParamsArchive(const std::vector<nn::Var>& params) {
  std::stringstream stream;
  ArchiveWriter writer(stream);
  writer.BeginSection("params");
  serialize::WriteParams(writer, params);
  EXPECT_TRUE(writer.Finish().ok());
  Result<ArchiveReader> parsed = ArchiveReader::Parse(stream);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

TEST(ParamsArchiveTest, RoundTripsIntoSameShapedParameters) {
  Rng rng(1);
  std::vector<nn::Var> params = {
      nn::Var::Param(nn::Tensor::Randn(rng, 3, 4)),
      nn::Var::Param(nn::Tensor::Randn(rng, 1, 7)),
  };
  ArchiveReader reader = ParamsArchive(params);

  Rng rng2(2);
  std::vector<nn::Var> fresh = {
      nn::Var::Param(nn::Tensor::Randn(rng2, 3, 4)),
      nn::Var::Param(nn::Tensor::Randn(rng2, 1, 7)),
  };
  ASSERT_TRUE(serialize::ReadParamsInto(reader, "params", fresh).ok());
  for (size_t i = 0; i < params.size(); ++i)
    EXPECT_DOUBLE_EQ(
        (params[i].value() - fresh[i].value()).MaxAbs(), 0.0);
}

TEST(ParamsArchiveTest, RejectsCountMismatch) {
  Rng rng(3);
  ArchiveReader reader =
      ParamsArchive({nn::Var::Param(nn::Tensor::Randn(rng, 2, 2))});
  std::vector<nn::Var> two = {
      nn::Var::Param(nn::Tensor::Randn(rng, 2, 2)),
      nn::Var::Param(nn::Tensor::Randn(rng, 2, 2))};
  Status s = serialize::ReadParamsInto(reader, "params", two);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("has 1 tensors"), std::string::npos)
      << s.ToString();
}

TEST(ParamsArchiveTest, RejectsShapeMismatch) {
  Rng rng(4);
  ArchiveReader reader =
      ParamsArchive({nn::Var::Param(nn::Tensor::Randn(rng, 2, 3))});
  std::vector<nn::Var> other = {
      nn::Var::Param(nn::Tensor::Randn(rng, 3, 2))};
  Status s = serialize::ReadParamsInto(reader, "params", other);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("2x3"), std::string::npos) << s.ToString();
}

// ---------------------------------------------------------------------------
// Locale independence: archives must round-trip under a comma-decimal
// global locale (regression: un-imbued streams rendered 0.5 as "0,5",
// corrupting the file).
// ---------------------------------------------------------------------------

/// Installs a comma-decimal global locale for the test's scope, if the
/// host has one; restores the previous global locale on destruction.
class CommaLocaleScope {
 public:
  CommaLocaleScope() {
    for (const char* name :
         {"de_DE.UTF-8", "fr_FR.UTF-8", "de_DE.utf8", "fr_FR.utf8", "de_DE",
          "fr_FR"}) {
      try {
        std::locale candidate(name);
        if (std::use_facet<std::numpunct<char>>(candidate)
                .decimal_point() != ',')
          continue;
        previous_ = std::locale::global(candidate);
        installed_ = true;
        return;
      } catch (const std::runtime_error&) {
        continue;  // Locale not available on this host; try the next.
      }
    }
  }
  ~CommaLocaleScope() {
    if (installed_) std::locale::global(previous_);
  }
  bool installed() const { return installed_; }

 private:
  bool installed_ = false;
  std::locale previous_;
};

TEST(ArchiveTest, RoundTripsUnderCommaDecimalLocale) {
  CommaLocaleScope comma_locale;
  if (!comma_locale.installed())
    GTEST_SKIP() << "no comma-decimal locale available on this host";

  std::stringstream stream;
  // A stringstream created under the comma locale adopts it — exactly the
  // hazard the archive's classic-locale imbue must neutralize.
  ArchiveWriter writer(stream);
  writer.BeginSection("s");
  writer.WriteDouble("half", 0.5);
  writer.WriteDoubleVector("v", {1.25, -2.75});
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(stream.str().find(','), std::string::npos)
      << "comma leaked into the archive: " << stream.str();
  Result<ArchiveReader> parsed = ArchiveReader::Parse(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed.value().GetDouble("s", "half").value(), 0.5);
  EXPECT_EQ(parsed.value().GetDoubleVector("s", "v").value(),
            (std::vector<double>{1.25, -2.75}));
}

// ---------------------------------------------------------------------------
// TemporalGraph save/load round trips (datasets::SaveEdgeList/LoadEdgeList).
// ---------------------------------------------------------------------------

void ExpectGraphsEqual(const graphs::TemporalGraph& a,
                       const graphs::TemporalGraph& b) {
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_timestamps(), b.num_timestamps());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (size_t i = 0; i < a.edges().size(); ++i)
    EXPECT_TRUE(a.edges()[i] == b.edges()[i]);
}

TEST_F(TemporalGraphIoTest, RoundTripsEmptyGraph) {
  graphs::TemporalGraph g(5, 3);
  g.Finalize();
  std::string path = Path("empty.txt");
  ASSERT_TRUE(datasets::SaveEdgeList(g, path).ok());
  Result<graphs::TemporalGraph> r = datasets::LoadEdgeList(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectGraphsEqual(g, r.value());
  EXPECT_EQ(r.value().num_edges(), 0);
}

TEST_F(TemporalGraphIoTest, RoundTripsSingleEdge) {
  graphs::TemporalGraph g(4, 6);
  // A lone edge at t > 0 pins down that header files are NOT re-based.
  g.AddEdge(1, 2, 3);
  g.Finalize();
  std::string path = Path("single.txt");
  ASSERT_TRUE(datasets::SaveEdgeList(g, path).ok());
  Result<graphs::TemporalGraph> r = datasets::LoadEdgeList(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectGraphsEqual(g, r.value());
  EXPECT_EQ(r.value().edges()[0].t, 3);
}

TEST_F(TemporalGraphIoTest, RoundTripsDenseGraph) {
  graphs::TemporalGraph g =
      datasets::MakeMimicByName("DBLP", 0.05, 123);
  std::string path = Path("dense.txt");
  ASSERT_TRUE(datasets::SaveEdgeList(g, path).ok());
  Result<graphs::TemporalGraph> r = datasets::LoadEdgeList(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectGraphsEqual(g, r.value());
}

TEST_F(TemporalGraphIoTest, EmptyGraphSurvivesTwoTrips) {
  graphs::TemporalGraph g(2, 1);
  g.Finalize();
  std::string p1 = Path("trip1.txt"), p2 = Path("trip2.txt");
  ASSERT_TRUE(datasets::SaveEdgeList(g, p1).ok());
  Result<graphs::TemporalGraph> r1 = datasets::LoadEdgeList(p1);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(datasets::SaveEdgeList(r1.value(), p2).ok());
  Result<graphs::TemporalGraph> r2 = datasets::LoadEdgeList(p2);
  ASSERT_TRUE(r2.ok());
  ExpectGraphsEqual(r1.value(), r2.value());
}

// ---------------------------------------------------------------------------
// TGAE fitted state: the stored parameters must fit the loading model.
// ---------------------------------------------------------------------------

TEST(TgaeStateTest, SaveBeforeFitIsInvalidArgument) {
  TgaeGenerator gen;
  std::stringstream stream;
  EXPECT_EQ(gen.SaveState(stream).code(), StatusCode::kInvalidArgument);
}

TEST(TgaeStateTest, LoadIntoDifferentDimensionsIsInvalidArgument) {
  graphs::TemporalGraph observed =
      datasets::MakeMimicByName("DBLP", 0.05, 77);
  TgaeConfig small;
  small.epochs = 1;
  small.batch_centers = 4;
  TgaeGenerator a(small);
  Rng rng(1);
  a.Fit(observed, rng);
  std::stringstream state;
  ASSERT_TRUE(a.SaveState(state).ok());

  TgaeConfig big = small;
  big.embedding_dim = 16;
  big.hidden_dim = 16;
  TgaeGenerator b(big);
  Status s = b.LoadState(state);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

}  // namespace
}  // namespace tgsim::core
