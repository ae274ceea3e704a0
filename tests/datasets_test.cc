#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <locale>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "gtest/gtest.h"
#include "metrics/graph_stats.h"

namespace tgsim::datasets {
namespace {

TEST(DatasetRegistryTest, TableIIHasSevenNetworks) {
  EXPECT_EQ(TableIIDatasets().size(), 7u);
}

TEST(DatasetRegistryTest, SpecsMatchPaperTableII) {
  const DatasetSpec* dblp = FindDataset("DBLP");
  ASSERT_NE(dblp, nullptr);
  EXPECT_EQ(dblp->num_nodes, 1909);
  EXPECT_EQ(dblp->num_edges, 8237);
  EXPECT_EQ(dblp->num_timestamps, 15);
  const DatasetSpec* ubuntu = FindDataset("UBUNTU");
  ASSERT_NE(ubuntu, nullptr);
  EXPECT_EQ(ubuntu->num_nodes, 159316);
  EXPECT_EQ(ubuntu->num_edges, 964437);
  EXPECT_EQ(ubuntu->num_timestamps, 88);
}

TEST(DatasetRegistryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(FindDataset("NOPE"), nullptr);
}

TEST(MimicTest, ShapeMatchesScaledSpec) {
  const DatasetSpec* spec = FindDataset("MSG");
  ASSERT_NE(spec, nullptr);
  MimicConfig cfg;
  cfg.scale = 0.1;
  graphs::TemporalGraph g = MakeMimic(*spec, cfg, 7);
  EXPECT_EQ(g.num_nodes(), static_cast<int>(spec->num_nodes * 0.1));
  EXPECT_EQ(g.num_edges(), static_cast<int64_t>(spec->num_edges * 0.1));
  EXPECT_EQ(g.num_timestamps(), static_cast<int>(spec->num_timestamps * 0.1));
}

TEST(MimicTest, DeterministicForSeed) {
  graphs::TemporalGraph a = MakeMimicByName("DBLP", 0.05, 5);
  graphs::TemporalGraph b = MakeMimicByName("DBLP", 0.05, 5);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (size_t i = 0; i < a.edges().size(); ++i)
    EXPECT_TRUE(a.edges()[i] == b.edges()[i]);
}

TEST(MimicTest, DifferentSeedsDiffer) {
  graphs::TemporalGraph a = MakeMimicByName("DBLP", 0.05, 5);
  graphs::TemporalGraph b = MakeMimicByName("DBLP", 0.05, 6);
  int diff = 0;
  for (size_t i = 0; i < a.edges().size(); ++i)
    diff += !(a.edges()[i] == b.edges()[i]);
  EXPECT_GT(diff, 0);
}

TEST(MimicTest, HasHeavyTailedDegrees) {
  graphs::TemporalGraph g = MakeMimicByName("DBLP", 0.2, 11);
  graphs::StaticGraph snap = g.SnapshotUpTo(g.num_timestamps() - 1);
  std::vector<int> degrees = snap.Degrees();
  int max_deg = 0;
  double mean = 0.0;
  int active = 0;
  for (int d : degrees) {
    max_deg = std::max(max_deg, d);
    if (d > 0) {
      mean += d;
      ++active;
    }
  }
  mean /= active;
  // Preferential attachment: the biggest hub is far above the mean.
  EXPECT_GT(max_deg, 5 * mean);
}

TEST(MimicTest, ProducesTrianglesViaCommunities) {
  graphs::TemporalGraph g = MakeMimicByName("DBLP", 0.2, 11);
  graphs::StaticGraph snap = g.SnapshotUpTo(g.num_timestamps() - 1);
  EXPECT_GT(metrics::TriangleCount(snap), 0);
}

TEST(MimicTest, EdgeCountsGrowOverTime) {
  graphs::TemporalGraph g = MakeMimicByName("MSG", 0.1, 3);
  std::vector<int64_t> counts = g.EdgesPerTimestamp();
  // Densification schedule: the last timestamp emits more than the first.
  EXPECT_GT(counts.back(), counts.front());
}

TEST(MimicTest, TimestampsFlooredAtEight) {
  graphs::TemporalGraph g = MakeMimicByName("DBLP", 0.05, 3);
  EXPECT_GE(g.num_timestamps(), 8);
}

TEST(ScalabilityTest, LabelFormat) {
  ScalabilityConfig c{1000, 10, 0.01};
  EXPECT_EQ(c.Label(), "1k*10*0.01");
  ScalabilityConfig c2{2500, 20, 0.05};
  EXPECT_EQ(c2.Label(), "2500*20*0.05");
}

TEST(ScalabilityTest, EdgeCountMatchesDensity) {
  ScalabilityConfig c{200, 5, 0.01};
  graphs::TemporalGraph g = MakeScalabilityGraph(c, 3);
  EXPECT_EQ(g.num_nodes(), 200);
  EXPECT_EQ(g.num_timestamps(), 5);
  EXPECT_EQ(g.num_edges(), 5 * static_cast<int64_t>(0.01 * 200 * 200));
}

TEST(ScalabilityTest, NoSelfLoops) {
  ScalabilityConfig c{50, 3, 0.02};
  graphs::TemporalGraph g = MakeScalabilityGraph(c, 4);
  for (const auto& e : g.edges()) EXPECT_NE(e.u, e.v);
}

// ---------------------------------------------------------------------------
// Edge-list IO.
// ---------------------------------------------------------------------------

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(IoTest, RoundTripsThroughDisk) {
  graphs::TemporalGraph g = MakeMimicByName("DBLP", 0.03, 9);
  std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  Result<graphs::TemporalGraph> loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.value().num_timestamps(), g.num_timestamps());
  ASSERT_EQ(loaded.value().num_edges(), g.num_edges());
  for (size_t i = 0; i < g.edges().size(); ++i)
    EXPECT_TRUE(loaded.value().edges()[i] == g.edges()[i]);
}

TEST(IoTest, MissingFileIsIoError) {
  Result<graphs::TemporalGraph> r = LoadEdgeList("/nonexistent/file.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(IoTest, MalformedLineIsInvalidArgument) {
  std::string path = TempPath("malformed.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("0 1 0\nnot an edge\n", f);
  fclose(f);
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(IoTest, EmptyFileIsInvalidArgument) {
  std::string path = TempPath("empty.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("% comment only\n", f);
  fclose(f);
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
}

TEST(IoTest, MalformedHeaderIsInvalidArgument) {
  // Partial, non-numeric, non-positive, or int-overflowing headers must be
  // rejected outright — silently ignoring them would load the graph over
  // the wrong node universe.
  for (const char* header :
       {"# 100\n", "# abc 3\n", "# 0 3\n", "# 4 -1\n", "# 3000000000 1\n"}) {
    std::string path = TempPath("badhdr.txt");
    FILE* f = fopen(path.c_str(), "w");
    fputs(header, f);
    fputs("0 1 0\n", f);
    fclose(f);
    Result<graphs::TemporalGraph> r = LoadEdgeList(path);
    ASSERT_FALSE(r.ok()) << "header accepted: " << header;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(IoTest, EmptyGraphRequiresWellFormedHeader) {
  std::string path = TempPath("emptyhdr.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("# 3000000000 1\n", f);
  fclose(f);
  // An edge-free file with an overflowing header must error, not abort.
  EXPECT_FALSE(LoadEdgeList(path).ok());
}

TEST(IoTest, InfersShapeWithoutHeader) {
  std::string path = TempPath("noheader.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("0 1 5\n2 3 7\n", f);
  fclose(f);
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_nodes(), 4);
  // Timestamps re-based: 5..7 -> 0..2.
  EXPECT_EQ(r.value().num_timestamps(), 3);
  EXPECT_EQ(r.value().edges()[0].t, 0);
}

TEST(IoTest, MalformedInputReportsLineNumberAndPath) {
  std::string path = TempPath("lineno.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("0 1 0\n1 2 1\nnot an edge\n", f);
  fclose(f);
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find(path), std::string::npos);
}

TEST(IoTest, RejectsNegativeNodeIds) {
  std::string path = TempPath("negnode.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("0 1 0\n-2 3 1\n", f);
  fclose(f);
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("negative node id at line 2"),
            std::string::npos)
      << r.status().message();
}

TEST(IoTest, RejectsNegativeTimestamps) {
  // With and without a header: negative timestamps are rejected outright
  // instead of being silently re-based into the valid range.
  for (const char* contents : {"0 1 -5\n2 3 7\n", "# 4 8\n0 1 -5\n"}) {
    std::string path = TempPath("negts.txt");
    FILE* f = fopen(path.c_str(), "w");
    fputs(contents, f);
    fclose(f);
    Result<graphs::TemporalGraph> r = LoadEdgeList(path);
    ASSERT_FALSE(r.ok()) << contents;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("negative timestamp"),
              std::string::npos)
        << r.status().message();
  }
}

TEST(IoTest, RejectsTrailingTokensOnEdgeLines) {
  // A fourth column would previously be dropped on the floor — a classic
  // way to misread a weighted edge list as unweighted.
  std::string path = TempPath("trailing.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("0 1 0 0.75\n", f);
  fclose(f);
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("trailing token"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
}

TEST(IoTest, RejectsTrailingTokensOnHeader) {
  std::string path = TempPath("trailhdr.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("# 4 2 extra\n0 1 0\n", f);
  fclose(f);
  EXPECT_FALSE(LoadEdgeList(path).ok());
}

TEST(IoTest, SkipsCommentLines) {
  std::string path = TempPath("comments.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("% comment\n# 4 2\n0 1 0\n\n2 3 1\n", f);
  fclose(f);
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_nodes(), 4);
  EXPECT_EQ(r.value().num_edges(), 2);
}

TEST(IoTest, HeaderViolationIsError) {
  std::string path = TempPath("badheader.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("# 2 2\n0 5 0\n", f);
  fclose(f);
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
  // Header-first files report the offending line and path.
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find(path), std::string::npos);
}

/// The per-field stream formatting WriteEdgeList once used, kept as its
/// oracle on a classic-imbued stream.
std::string ClassicStreamEdgeList(const graphs::TemporalGraph& g) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << "# " << g.num_nodes() << " " << g.num_timestamps() << "\n";
  for (const graphs::TemporalEdge& e : g.edges())
    out << e.u << " " << e.v << " " << e.t << "\n";
  return out.str();
}

std::string WrittenEdgeList(const graphs::TemporalGraph& g) {
  std::ostringstream out;
  WriteEdgeList(g, out);
  return out.str();
}

/// A seeded random graph whose ids have 1 to 7 digits (each id's digit
/// count is drawn first), so its text varies in line length.
graphs::TemporalGraph RandomWideIdGraph(uint64_t seed, int num_edges) {
  constexpr int kNodes = 1'200'000;
  constexpr int kTimestamps = 120;
  Rng rng(seed);
  const auto id = [&rng] {
    int64_t bound = 1;
    for (int64_t digits = rng.UniformInt(1, 7); digits > 0; --digits)
      bound *= 10;
    return static_cast<graphs::NodeId>(
        rng.UniformInt(std::min<int64_t>(bound, kNodes)));
  };
  std::vector<graphs::TemporalEdge> edges;
  for (int i = 0; i < num_edges; ++i) {
    const graphs::NodeId u = id();
    const graphs::NodeId v = id();
    edges.push_back(
        {u, v, static_cast<graphs::Timestamp>(rng.UniformInt(kTimestamps))});
  }
  return graphs::TemporalGraph::FromEdges(kNodes, kTimestamps,
                                          std::move(edges));
}

TEST(IoTest, WriterMatchesClassicStreamFormatting) {
  const graphs::TemporalGraph empty =
      graphs::TemporalGraph::FromEdges(7, 4, {});
  EXPECT_EQ(WrittenEdgeList(empty), "# 7 4\n");
  EXPECT_EQ(WrittenEdgeList(empty), ClassicStreamEdgeList(empty));

  const graphs::TemporalGraph self_loops = graphs::TemporalGraph::FromEdges(
      5, 3, {{2, 2, 0}, {0, 0, 1}, {1, 3, 1}, {4, 4, 2}});
  EXPECT_EQ(WrittenEdgeList(self_loops), ClassicStreamEdgeList(self_loops));

  // 30k edges of up to 7-digit ids: the text must exceed 4 x 64 KiB, so
  // it spans at least four writer blocks (32 KiB today) even if the block
  // size doubles.
  for (const uint64_t seed : {3, 4, 5}) {
    const graphs::TemporalGraph g = RandomWideIdGraph(seed, 30'000);
    const std::string written = WrittenEdgeList(g);
    EXPECT_GT(written.size(), 4u * 64 * 1024);
    EXPECT_EQ(written, ClassicStreamEdgeList(g)) << "seed " << seed;
  }

  // A multi-block file round-trips through SaveEdgeList/LoadEdgeList.
  const graphs::TemporalGraph g = RandomWideIdGraph(6, 30'000);
  const std::string path = TempPath("multiblock.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  Result<graphs::TemporalGraph> loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.value().num_timestamps(), g.num_timestamps());
  ASSERT_EQ(loaded.value().num_edges(), g.num_edges());
  for (size_t i = 0; i < g.edges().size(); ++i)
    ASSERT_TRUE(loaded.value().edges()[i] == g.edges()[i]) << "edge " << i;
}

/// Digit grouping in threes with ',' as the separator, as locales such as
/// en_US use; built in the test so that no installed locale is needed.
struct GroupingNumpunct : std::numpunct<char> {
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(IoTest, WriterIgnoresStreamLocale) {
  // Stream formatting would write `# 1,899 12` and `1,234 5 11`, and
  // LoadEdgeList rejects that header as malformed.
  const graphs::TemporalGraph g = graphs::TemporalGraph::FromEdges(
      1899, 12, {{1234, 5, 11}, {0, 1898, 0}});
  std::ostringstream grouped;
  grouped.imbue(std::locale(std::locale::classic(), new GroupingNumpunct));
  WriteEdgeList(g, grouped);
  EXPECT_EQ(grouped.str(), "# 1899 12\n0 1898 0\n1234 5 11\n");
  EXPECT_EQ(grouped.str(), ClassicStreamEdgeList(g));
}

// ---------------------------------------------------------------------------
// Binary edge-list format.
// ---------------------------------------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(BinaryIoTest, RoundTripsThroughDiskViaSniffing) {
  graphs::TemporalGraph g = MakeMimicByName("DBLP", 0.03, 9);
  std::string path = TempPath("roundtrip.bin");
  ASSERT_TRUE(SaveEdgeListBinary(g, path).ok());
  // LoadEdgeList takes the same path as for text files and sniffs the magic.
  Result<graphs::TemporalGraph> loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.value().num_timestamps(), g.num_timestamps());
  ASSERT_EQ(loaded.value().num_edges(), g.num_edges());
  for (size_t i = 0; i < g.edges().size(); ++i)
    EXPECT_TRUE(loaded.value().edges()[i] == g.edges()[i]);
}

TEST(BinaryIoTest, EmptyGraphRoundTrips) {
  // A zero-edge graph is a valid container (an empty update batch is a
  // no-op, not an error): the writer emits magic + counts, the reader
  // rebuilds the canvas from them.
  graphs::TemporalGraph g = graphs::TemporalGraph::FromEdges(7, 4, {});
  std::string path = TempPath("empty.bin");
  ASSERT_TRUE(SaveEdgeListBinary(g, path).ok());
  Result<graphs::TemporalGraph> loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), 7);
  EXPECT_EQ(loaded.value().num_timestamps(), 4);
  EXPECT_EQ(loaded.value().num_edges(), 0);
}

TEST(BinaryIoTest, TextBinaryTextIsByteIdentical) {
  graphs::TemporalGraph g = MakeMimicByName("MSG", 0.02, 21);
  std::string text1 = TempPath("t1.txt");
  std::string bin = TempPath("t1.bin");
  std::string text2 = TempPath("t2.txt");
  ASSERT_TRUE(SaveEdgeList(g, text1).ok());
  Result<graphs::TemporalGraph> from_text = LoadEdgeList(text1);
  ASSERT_TRUE(from_text.ok());
  ASSERT_TRUE(SaveEdgeListBinary(from_text.value(), bin).ok());
  Result<graphs::TemporalGraph> from_bin = LoadEdgeList(bin);
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
  ASSERT_TRUE(SaveEdgeList(from_bin.value(), text2).ok());
  EXPECT_EQ(ReadFileBytes(text1), ReadFileBytes(text2));
}

TEST(BinaryIoTest, BinaryIsSmallerThanText) {
  graphs::TemporalGraph g = MakeMimicByName("DBLP", 0.05, 3);
  std::string text = TempPath("size.txt");
  std::string bin = TempPath("size.bin");
  ASSERT_TRUE(SaveEdgeList(g, text).ok());
  ASSERT_TRUE(SaveEdgeListBinary(g, bin).ok());
  EXPECT_LT(ReadFileBytes(bin).size(), ReadFileBytes(text).size());
}

TEST(BinaryIoTest, TruncatedFileIsInvalidArgument) {
  graphs::TemporalGraph g = MakeMimicByName("DBLP", 0.03, 9);
  std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(SaveEdgeListBinary(g, path).ok());
  std::string bytes = ReadFileBytes(path);
  // Cut mid-stream: the decoder hits a truncated varint, never crashes.
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("truncated"), std::string::npos)
      << r.status().message();
}

TEST(BinaryIoTest, TrailingBytesAreInvalidArgument) {
  graphs::TemporalGraph g = MakeMimicByName("DBLP", 0.03, 9);
  std::string path = TempPath("trail.bin");
  ASSERT_TRUE(SaveEdgeListBinary(g, path).ok());
  WriteFileBytes(path, ReadFileBytes(path) + std::string("\x00", 1));
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("trailing bytes"), std::string::npos)
      << r.status().message();
}

TEST(BinaryIoTest, OutOfRangeNodeIdIsInvalidArgument) {
  // Hand-build: magic, nodes=2, timestamps=1, edges=1, then the triple
  // (5, 0, 0) zigzag-encoded (5 -> 10); node 5 exceeds the declared count.
  std::string bytes(kBinaryEdgeListMagic, sizeof(kBinaryEdgeListMagic) - 1);
  bytes += '\x02';
  bytes += '\x01';
  bytes += '\x01';
  bytes += '\x0a';
  bytes += '\x00';
  bytes += '\x00';
  std::string path = TempPath("badnode.bin");
  WriteFileBytes(path, bytes);
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("node id out of range"),
            std::string::npos)
      << r.status().message();
}

TEST(BinaryIoTest, ZeroCountsAreInvalidArgument) {
  std::string bytes(kBinaryEdgeListMagic, sizeof(kBinaryEdgeListMagic) - 1);
  bytes += '\x00';  // num_nodes = 0.
  bytes += '\x01';
  bytes += '\x00';
  std::string path = TempPath("zeronodes.bin");
  WriteFileBytes(path, bytes);
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("out-of-range"), std::string::npos)
      << r.status().message();
}

// ---------------------------------------------------------------------------
// Shape bound: a tiny file cannot declare or imply a huge graph.
// ---------------------------------------------------------------------------

/// `tgsimedg` magic, then one-varint node, timestamp and edge counts.
std::string BinaryCountsOnly(const std::string& nodes,
                             const std::string& timestamps) {
  return std::string(kBinaryEdgeListMagic, sizeof(kBinaryEdgeListMagic) - 1) +
         nodes + timestamps + std::string("\x00", 1);
}

TEST(ShapeBoundTest, TinyFilesClaimingHugeGraphsAreInvalidArgument) {
  // 2^31 - 1 as a LEB128 varint.
  const std::string int_max("\xff\xff\xff\xff\x07", 5);
  const struct {
    const char* name;
    std::string bytes;
  } cases[] = {
      {"header_nodes.txt", "# 2147483647 1\n"},
      {"inferred_nodes.txt", "0 1 0\n2000000000 0 0\n"},
      {"binary_nodes.bin", BinaryCountsOnly(int_max, "\x01")},
      {"binary_timestamps.bin", BinaryCountsOnly("\x01", int_max)},
  };
  for (const auto& c : cases) {
    // Each 15- to 21-byte file claims about 2^31 nodes or timestamps:
    // unchecked, Finalize would size its indexes by that and die with
    // std::bad_alloc.
    const std::string path = TempPath(c.name);
    WriteFileBytes(path, c.bytes);
    Result<graphs::TemporalGraph> r = LoadEdgeList(path);
    ASSERT_FALSE(r.ok()) << c.name;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_NE(r.status().message().find("edges justify"), std::string::npos)
        << r.status().message();
  }
}

TEST(ShapeBoundTest, InferredTimestampSpanIsBounded) {
  // A headerless file infers T from its timestamp span.
  const std::string path = TempPath("inferred_timestamps.txt");
  WriteFileBytes(path, "0 1 0\n1 0 5000000000\n");
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("edges justify"), std::string::npos)
      << r.status().message();
}

TEST(ShapeBoundTest, FloorAdmitsSparseGraphs) {
  // CI's out-of-core input: 150000 declared nodes, 12000 edges on 600.
  const std::string path = TempPath("sparse.txt");
  {
    std::ofstream out(path);
    out << "# 150000 3\n";
    Rng rng(17);
    for (int i = 0; i < 12000; ++i)
      out << rng.UniformInt(600) << " " << rng.UniformInt(600) << " "
          << i % 3 << "\n";
  }
  Result<graphs::TemporalGraph> sparse = LoadEdgeList(path);
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  EXPECT_EQ(sparse.value().num_nodes(), 150000);
  // Past the 2^21 floor, a file needs edges to justify its counts.
  WriteFileBytes(path, "# 2097153 1\n");
  EXPECT_FALSE(LoadEdgeList(path).ok());
  WriteFileBytes(path, "# 1 2097153\n");
  EXPECT_FALSE(LoadEdgeList(path).ok());
}

TEST(ShapeBoundTest, EdgesJustifyTwiceTheirCountInNodes) {
  // m = 2^20 + 1 disjoint edges justify 2m = 2^21 + 2 nodes, just past
  // the floor; one node more is refused.
  constexpr int kEdges = (1 << 20) + 1;
  const std::string path = TempPath("edge_bound.bin");
  {
    std::vector<graphs::TemporalEdge> edges;
    edges.reserve(kEdges);
    for (int i = 0; i < kEdges; ++i) edges.push_back({2 * i, 2 * i + 1, 0});
    ASSERT_TRUE(SaveEdgeListBinary(graphs::TemporalGraph::FromEdges(
                                       2 * kEdges, 1, std::move(edges)),
                                   path)
                    .ok());
  }
  {
    Result<graphs::TemporalGraph> loaded = LoadEdgeList(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().num_nodes(), 2 * kEdges);
    EXPECT_EQ(loaded.value().num_edges(), kEdges);
  }
  // 2^21 + 2 is the varint 82 80 80 01; 2^21 + 3 has the same length.
  std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.substr(8, 4), std::string("\x82\x80\x80\x01", 4));
  bytes[8] = '\x83';
  WriteFileBytes(path, bytes);
  Result<graphs::TemporalGraph> refused = LoadEdgeList(path);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("edges justify"),
            std::string::npos)
      << refused.status().message();
}

TEST(BinaryIoTest, OverlongVarintIsInvalidArgument) {
  // Eleven continuation bytes: no varint may run past ten bytes.
  std::string bytes(kBinaryEdgeListMagic, sizeof(kBinaryEdgeListMagic) - 1);
  bytes += std::string(11, '\x80');
  std::string path = TempPath("overlong.bin");
  WriteFileBytes(path, bytes);
  Result<graphs::TemporalGraph> r = LoadEdgeList(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tgsim::datasets
