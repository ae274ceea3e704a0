#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/netgan.h"
#include "baselines/score_sampling.h"
#include "baselines/state_io.h"
#include "common/rng.h"
#include "datasets/synthetic.h"
#include "gtest/gtest.h"
#include "nn/tensor.h"
#include "parallel/thread_pool.h"
#include "serialize/serialization.h"
#include "storage/block_file.h"
#include "storage/score_store.h"
#include "storage/sparse_rows.h"

namespace tgsim::storage {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Writes `bytes` to the temp file `name` and returns its path.
std::string WriteTempFile(const char* name, const std::string& bytes) {
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  EXPECT_TRUE(out.good()) << path;
  return path;
}

nn::Tensor MakeScores() {
  // 4x4 with negatives, zeros, and a diagonal that must all be skipped.
  nn::Tensor scores(4, 4);
  const double values[4][4] = {{9.0, 0.5, 0.25, 0.125},
                               {0.0, 9.0, -1.0, 2.0},
                               {3.0, 0.0, 9.0, 1.0},
                               {-2.0, 4.0, 4.0, 9.0}};
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) scores.at(r, c) = values[r][c];
  return scores;
}

// ---------------------------------------------------------------------------
// SparseScoreRows construction.
// ---------------------------------------------------------------------------

TEST(SparseRowsTest, FromDenseKeepsPositiveOffDiagonalEntries) {
  SparseScoreRows rows = SparseScoreRows::FromDense(MakeScores(), 0);
  EXPECT_EQ(rows.rows(), 4);
  EXPECT_EQ(rows.cols(), 4);
  // Row 0: 0.5, 0.25, 0.125; row 1: 2.0; row 2: 3.0, 1.0; row 3: 4.0, 4.0.
  EXPECT_EQ(rows.nnz(), 8);
  SparseScoreRowsView v = rows.View();
  SparseScoreRowsView::Row r0 = v.row(0);
  ASSERT_EQ(r0.cols.size(), 3u);
  EXPECT_EQ(r0.cols[0], 1);
  EXPECT_EQ(r0.weights[0], 0.5);
  EXPECT_EQ(r0.remainder, 0.0);  // Untruncated rows carry exactly zero.
  SparseScoreRowsView::Row r1 = v.row(1);
  ASSERT_EQ(r1.cols.size(), 1u);
  EXPECT_EQ(r1.cols[0], 3);
  EXPECT_EQ(r1.weights[0], 2.0);
}

TEST(SparseRowsTest, TopKTruncationKeepsLargestAndSumsRemainder) {
  SparseScoreRows rows = SparseScoreRows::FromDense(MakeScores(), 2);
  SparseScoreRowsView v = rows.View();
  // Row 0 keeps 0.5 and 0.25, drops 0.125.
  SparseScoreRowsView::Row r0 = v.row(0);
  ASSERT_EQ(r0.cols.size(), 2u);
  EXPECT_EQ(r0.cols[0], 1);
  EXPECT_EQ(r0.cols[1], 2);
  EXPECT_EQ(r0.remainder, 0.125);
  // Row 2 keeps both entries: no truncation, remainder exactly 0.
  EXPECT_EQ(v.row(2).cols.size(), 2u);
  EXPECT_EQ(v.row(2).remainder, 0.0);
}

TEST(SparseRowsTest, TopKTiesBreakTowardSmallerColumn) {
  // Row 3 has equal weights 4.0 at columns 1 and 2; topk=1 must keep
  // column 1 deterministically.
  SparseScoreRows rows = SparseScoreRows::FromDense(MakeScores(), 1);
  SparseScoreRowsView::Row r3 = rows.View().row(3);
  ASSERT_EQ(r3.cols.size(), 1u);
  EXPECT_EQ(r3.cols[0], 1);
  EXPECT_EQ(r3.remainder, 4.0);
}

TEST(SparseRowsTest, TopKAtLeastRowWidthMatchesUntruncated) {
  // The bit-identity precondition: topk >= n stores exactly what topk=0
  // stores, remainder zero everywhere.
  SparseScoreRows all = SparseScoreRows::FromDense(MakeScores(), 0);
  SparseScoreRows wide = SparseScoreRows::FromDense(MakeScores(), 4);
  ASSERT_EQ(all.nnz(), wide.nnz());
  SparseScoreRowsView a = all.View(), w = wide.View();
  for (int64_t i = 0; i < all.nnz(); ++i) {
    EXPECT_EQ(a.col[static_cast<size_t>(i)], w.col[static_cast<size_t>(i)]);
    EXPECT_EQ(a.weight[static_cast<size_t>(i)],
              w.weight[static_cast<size_t>(i)]);
  }
  for (int r = 0; r < 4; ++r) EXPECT_EQ(w.row(r).remainder, 0.0);
}

TEST(SparseRowsTest, FromSubmatrixEqualsFromDenseOfEmbeddedMatrix) {
  // Active nodes {1, 3, 4} of a 6-node graph, scores in a 3x3 submatrix.
  const std::vector<int> active = {1, 3, 4};
  nn::Tensor sub(3, 3);
  double next = 0.5;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) sub.at(i, j) = (i == j) ? 0.0 : (next += 0.5);
  nn::Tensor dense(6, 6);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) dense.at(active[i], active[j]) = sub.at(i, j);
  for (int64_t topk : {int64_t{0}, int64_t{1}, int64_t{2}}) {
    SparseScoreRows scattered =
        SparseScoreRows::FromSubmatrix(6, active, sub, topk);
    SparseScoreRows embedded = SparseScoreRows::FromDense(dense, topk);
    ASSERT_EQ(scattered.nnz(), embedded.nnz()) << "topk=" << topk;
    SparseScoreRowsView s = scattered.View(), e = embedded.View();
    for (size_t i = 0; i < static_cast<size_t>(scattered.nnz()); ++i) {
      EXPECT_EQ(s.col[i], e.col[i]);
      EXPECT_EQ(s.weight[i], e.weight[i]);
    }
    for (int r = 0; r < 6; ++r)
      EXPECT_EQ(s.row(r).remainder, e.row(r).remainder) << "row " << r;
  }
}

TEST(SparseRowsTest, DegenerateSubmatrixYieldsAllEmptyRows) {
  SparseScoreRows rows = SparseScoreRows::FromSubmatrix(5, {}, nn::Tensor(),
                                                        0);
  EXPECT_EQ(rows.rows(), 5);
  EXPECT_EQ(rows.nnz(), 0);
  for (int r = 0; r < 5; ++r)
    EXPECT_EQ(rows.View().row(r).cols.size(), 0u);
}

TEST(SparseRowsTest, FromPartsRejectsEveryInvariantViolation) {
  auto expect_bad = [](Result<SparseScoreRows> r, const char* what) {
    EXPECT_FALSE(r.ok()) << what;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  };
  expect_bad(SparseScoreRows::FromParts(2, 2, {0, 1}, {1}, {1.0}, {0.0, 0.0}),
             "row_ptr too short");
  expect_bad(
      SparseScoreRows::FromParts(2, 2, {0, 2, 1}, {1, 0}, {1.0, 1.0},
                                 {0.0, 0.0}),
      "row_ptr not monotone");
  expect_bad(SparseScoreRows::FromParts(2, 2, {0, 1, 1}, {2}, {1.0},
                                        {0.0, 0.0}),
             "column out of range");
  expect_bad(SparseScoreRows::FromParts(2, 2, {0, 1, 1}, {0}, {1.0},
                                        {0.0, 0.0}),
             "diagonal entry");
  expect_bad(SparseScoreRows::FromParts(2, 2, {0, 1, 1}, {1}, {-1.0},
                                        {0.0, 0.0}),
             "non-positive weight");
  expect_bad(SparseScoreRows::FromParts(2, 2, {0, 1, 1}, {1}, {1.0},
                                        {-0.5, 0.0}),
             "negative remainder");
  Result<SparseScoreRows> ok =
      SparseScoreRows::FromParts(2, 2, {0, 1, 1}, {1}, {1.0}, {0.0, 0.0});
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// ---------------------------------------------------------------------------
// Score block codec.
// ---------------------------------------------------------------------------

TEST(ScoreBlockTest, EncodeDecodeRoundTrips) {
  SparseScoreRows rows = SparseScoreRows::FromDense(MakeScores(), 2);
  std::string encoded = EncodeScoreBlock(rows.View());
  Result<SparseScoreRowsView> decoded =
      DecodeScoreBlock(encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().rows, 4);
  EXPECT_EQ(decoded.value().nnz(), rows.nnz());
  SparseScoreRows copy = SparseScoreRows::CopyOf(decoded.value());
  std::string re_encoded = EncodeScoreBlock(copy.View());
  EXPECT_EQ(encoded, re_encoded);
}

TEST(ScoreBlockTest, DecodeRejectsCorruptPayloads) {
  SparseScoreRows rows = SparseScoreRows::FromDense(MakeScores(), 0);
  std::string good = EncodeScoreBlock(rows.View());
  // Truncated.
  EXPECT_FALSE(DecodeScoreBlock(good.data(), good.size() - 8).ok());
  EXPECT_FALSE(DecodeScoreBlock(good.data(), 8).ok());
  // Header lies about nnz.
  std::string bad = good;
  int64_t huge = 1 << 20;
  std::memcpy(bad.data() + 16, &huge, sizeof(huge));
  EXPECT_FALSE(DecodeScoreBlock(bad.data(), bad.size()).ok());
  // A column steered onto the diagonal.
  bad = good;
  int64_t diag = 0;  // col of row 0's first entry -> 0 == row index.
  std::memcpy(bad.data() + 24 + 8 * 5, &diag, sizeof(diag));
  Result<SparseScoreRowsView> r = DecodeScoreBlock(bad.data(), bad.size());
  EXPECT_FALSE(r.ok());
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ScoreBlockTest, ArchiveSectionRoundTrips) {
  SparseScoreRows rows = SparseScoreRows::FromDense(MakeScores(), 2);
  std::stringstream stream;
  serialize::ArchiveWriter writer(stream);
  writer.BeginSection("sparse_scores");
  WriteSparseScores(writer, "t0", rows.View());
  ASSERT_TRUE(writer.Finish().ok());
  Result<serialize::ArchiveReader> reader =
      serialize::ArchiveReader::Parse(stream);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  Result<SparseScoreRows> loaded =
      ReadSparseScores(reader.value(), "sparse_scores", "t0");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(EncodeScoreBlock(loaded.value().View()),
            EncodeScoreBlock(rows.View()));
}

// ---------------------------------------------------------------------------
// BlockFile container.
// ---------------------------------------------------------------------------

/// Writes a container holding {alpha, empty, beta} after `prefix` bytes
/// and returns the whole stream (prefix + container).
std::string WriteSampleContainer(const std::string& prefix) {
  std::ostringstream out;
  out << prefix;
  BlockFileWriter writer(out);
  writer.AddBlock("alpha", "0123456789");
  writer.AddBlock("empty", "");
  writer.AddBlock("beta", "abcdefghijklmnop");
  EXPECT_TRUE(writer.Finish().ok());
  return out.str();
}

void ExpectSampleContents(const BlockFileReader& reader) {
  EXPECT_TRUE(reader.HasBlock("alpha"));
  EXPECT_TRUE(reader.HasBlock("empty"));
  EXPECT_TRUE(reader.HasBlock("beta"));
  EXPECT_FALSE(reader.HasBlock("gamma"));
  Result<MappedBlock> alpha = reader.Map("alpha");
  ASSERT_TRUE(alpha.ok()) << alpha.status().ToString();
  EXPECT_EQ(std::string(static_cast<const char*>(alpha.value().data()),
                        alpha.value().size()),
            "0123456789");
  EXPECT_EQ(reinterpret_cast<uintptr_t>(alpha.value().data()) % 8, 0u);
  Result<MappedBlock> empty = reader.Map("empty");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().size(), 0u);
  Result<MappedBlock> missing = reader.Map("gamma");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(reader.VerifyChecksums().ok());
  EXPECT_EQ(reader.TotalBlockBytes(), 10 + 0 + 16);
}

TEST(BlockFileTest, FileModeMmapsBlocks) {
  const std::string prefix = "archive-stand-in\n";
  std::string bytes = WriteSampleContainer(prefix);
  std::string path = TempPath("blocks.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  Result<BlockFileReader> reader =
      BlockFileReader::OpenFile(path, static_cast<int64_t>(prefix.size()));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ExpectSampleContents(reader.value());
  std::remove(path.c_str());
}

TEST(BlockFileTest, StructuralCorruptionIsStatusNeverCrash) {
  std::string bytes = WriteSampleContainer("");
  auto open = [](const std::string& data) {
    return BlockFileReader::OpenFile(WriteTempFile("corrupt.bin", data), 0);
  };
  // Truncations at every boundary.
  for (size_t keep : {size_t{0}, size_t{10}, size_t{55},
                      bytes.size() - 1, bytes.size() - 17}) {
    Result<BlockFileReader> r = open(bytes.substr(0, keep));
    EXPECT_FALSE(r.ok()) << "kept " << keep << " bytes";
  }
  // Bad header magic.
  std::string bad = bytes;
  bad[0] = 'X';
  EXPECT_FALSE(open(bad).ok());
  // Unsupported version (i64 after the 8-byte magic).
  bad = bytes;
  int64_t version = 99;
  std::memcpy(bad.data() + 8, &version, sizeof(version));
  Result<BlockFileReader> versioned = open(bad);
  ASSERT_FALSE(versioned.ok());
  EXPECT_NE(versioned.status().message().find("version"), std::string::npos)
      << versioned.status().message();
  // Bad tail magic.
  bad = bytes;
  bad[bad.size() - 1] = '?';
  EXPECT_FALSE(open(bad).ok());
  // Index checksum mismatch: flip a byte inside the index region.
  bad = bytes;
  bad[bad.size() - 41] ^= 0x1;
  EXPECT_FALSE(open(bad).ok());
  std::remove(TempPath("corrupt.bin").c_str());
}

TEST(BlockFileTest, BlockChecksumMismatchIsDetected) {
  std::string bytes = WriteSampleContainer("");
  // Flip one payload byte ("0123456789" starts right after the 16-byte
  // header); the container still parses, VerifyChecksums names the block.
  bytes[16] ^= 0x2;
  const std::string path = WriteTempFile("flipped.bin", bytes);
  Result<BlockFileReader> reader = BlockFileReader::OpenFile(path, 0);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  Status sums = reader.value().VerifyChecksums();
  ASSERT_FALSE(sums.ok());
  EXPECT_NE(sums.message().find("alpha"), std::string::npos)
      << sums.message();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ScoreStore + save/load + sampling equivalence.
// ---------------------------------------------------------------------------

baselines::ObservedShape MakeShape(int n, std::vector<int64_t> per_t) {
  baselines::ObservedShape shape;
  shape.num_nodes = n;
  shape.num_timestamps = static_cast<int>(per_t.size());
  shape.edges_per_timestamp = std::move(per_t);
  return shape;
}

TEST(ScoreStoreTest, ResidentStoreBasics) {
  ScoreStore store;
  store.Reset(3);
  store.Set(1, SparseScoreRows::FromDense(MakeScores(), 0));
  EXPECT_FALSE(store.block_backed());
  EXPECT_FALSE(store.has(0));
  EXPECT_TRUE(store.has(1));
  EXPECT_EQ(store.TotalNnz(), 8);
  EXPECT_GT(store.ResidentBytes(), 0);
  EXPECT_TRUE(store.CheckSnapshot(1, 4).ok());
  EXPECT_FALSE(store.CheckSnapshot(1, 5).ok());  // Shape mismatch.
  EXPECT_TRUE(store.CheckSnapshot(0, 4).ok());   // Absent passes.
  EXPECT_EQ(store.Snapshot(1).view.nnz(), 8);
}

TEST(ScoreSamplingEquivalenceTest, SparseMatchesDenseBitForBit) {
  // The dense Tensor overload converts through FromDense(scores, 0); an
  // explicitly pre-sparsified store with topk >= n must consume the rng
  // identically and emit identical edges.
  nn::Tensor scores = MakeScores();
  SparseScoreRows sparse = SparseScoreRows::FromDense(scores, 4);
  for (uint64_t seed : {1u, 7u, 99u}) {
    std::vector<graphs::TemporalEdge> dense_edges, sparse_edges;
    Rng dense_rng(seed), sparse_rng(seed);
    baselines::SampleEdgesFromScores(scores, 5, 2, dense_rng, &dense_edges);
    baselines::SampleEdgesFromScores(sparse.View(), 5, 2, sparse_rng,
                                     &sparse_edges);
    ASSERT_EQ(dense_edges.size(), sparse_edges.size());
    for (size_t i = 0; i < dense_edges.size(); ++i) {
      EXPECT_TRUE(dense_edges[i] == sparse_edges[i]) << "seed " << seed;
    }
    // And the rng streams stayed in lockstep beyond the last draw.
    EXPECT_EQ(dense_rng.Uniform(), sparse_rng.Uniform());
  }
}

TEST(ScoreSamplingEquivalenceTest, SingleNodeGraphEmitsSelfLoops) {
  // n < 2 has no off-diagonal pair at all; the sampler must emit the only
  // representable edge rather than spin forever.
  SparseScoreRows rows = SparseScoreRows::FromDense(nn::Tensor(1, 1), 0);
  std::vector<graphs::TemporalEdge> edges;
  Rng rng(3);
  baselines::SampleEdgesFromScores(rows.View(), 3, 5, rng, &edges);
  ASSERT_EQ(edges.size(), 3u);
  for (const graphs::TemporalEdge& e : edges) {
    EXPECT_EQ(e.u, 0);
    EXPECT_EQ(e.v, 0);
    EXPECT_EQ(e.t, 5);
  }
}

TEST(ScoreStateTest, SmallModelsSaveInlineAndRoundTrip) {
  baselines::ObservedShape shape = MakeShape(4, {0, 3});
  ScoreStore store;
  store.Reset(2);
  store.Set(1, SparseScoreRows::FromDense(MakeScores(), 2));
  std::stringstream out;
  ASSERT_TRUE(
      baselines::SaveScoreState(shape, store, 2, out, "test").ok());
  // Inline mode: the whole artifact is the text archive, no binary tail.
  EXPECT_NE(out.str().find("format"), std::string::npos);
  EXPECT_NE(out.str().find("inline"), std::string::npos);
  EXPECT_EQ(out.str().find("tgsimblk"), std::string::npos);

  baselines::ObservedShape loaded_shape;
  ScoreStore loaded;
  Status s = baselines::LoadScoreState(loaded_shape, loaded, out, "");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(loaded.block_backed());
  EXPECT_EQ(EncodeScoreBlock(loaded.Snapshot(1).view),
            EncodeScoreBlock(store.Snapshot(1).view));
}

/// A store big enough (nnz > 4096) to force the blocks format, plus its
/// shape. Dense random scores over 100 nodes: ~4950 positive entries in
/// the untruncated snapshot alone.
void MakeBlockScaleModel(baselines::ObservedShape& shape, ScoreStore& store) {
  const int n = 100;
  Rng rng(13);
  nn::Tensor scores(n, n);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      scores.at(r, c) = rng.Uniform() - 0.5;
  shape = MakeShape(n, {40, 0, 25});
  store.Reset(3);
  store.Set(0, SparseScoreRows::FromDense(scores, 0));
  store.Set(2, SparseScoreRows::FromDense(scores, 7));
}

TEST(ScoreStateTest, LargeModelsSaveBlocksAndRoundTripThroughTheFile) {
  baselines::ObservedShape shape;
  ScoreStore store;
  MakeBlockScaleModel(shape, store);
  std::stringstream out;
  ASSERT_TRUE(baselines::SaveScoreState(shape, store, 0, out, "test").ok());
  EXPECT_NE(out.str().find("blocks"), std::string::npos);
  EXPECT_NE(out.str().find("tgsimblk"), std::string::npos);

  // The load mmaps the blocks from the file and must reconstruct the
  // same snapshots.
  const std::string path = WriteTempFile("score_state.bin", out.str());
  std::ifstream in(path, std::ios::binary);
  baselines::ObservedShape mapped_shape;
  ScoreStore mapped;
  Status s = baselines::LoadScoreState(mapped_shape, mapped, in, path);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(mapped.block_backed());

  for (int t : {0, 2}) {
    EXPECT_EQ(EncodeScoreBlock(mapped.Snapshot(t).view),
              EncodeScoreBlock(store.Snapshot(t).view));
  }
  EXPECT_FALSE(mapped.has(1));

  // Bit-identical generation from both stores.
  Rng a(5), b(5);
  graphs::TemporalGraph from_store =
      baselines::GenerateFromScores(shape, store, a);
  graphs::TemporalGraph from_mapped =
      baselines::GenerateFromScores(mapped_shape, mapped, b);
  ASSERT_EQ(from_store.edges().size(), from_mapped.edges().size());
  for (size_t i = 0; i < from_store.edges().size(); ++i)
    EXPECT_TRUE(from_store.edges()[i] == from_mapped.edges()[i]);
  std::remove(path.c_str());
}

TEST(ScoreStateTest, BlocksStateWithoutItsFileIsInvalidArgument) {
  baselines::ObservedShape shape;
  ScoreStore store;
  MakeBlockScaleModel(shape, store);
  std::stringstream out;
  ASSERT_TRUE(baselines::SaveScoreState(shape, store, 0, out, "test").ok());
  ASSERT_NE(out.str().find("tgsimblk"), std::string::npos);

  baselines::ObservedShape loaded_shape;
  ScoreStore loaded;
  Status s = baselines::LoadScoreState(loaded_shape, loaded, out, "");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(ScoreStateTest, CorruptBlockPayloadsAreStatusErrors) {
  baselines::ObservedShape shape;
  ScoreStore store;
  MakeBlockScaleModel(shape, store);
  std::stringstream out;
  ASSERT_TRUE(baselines::SaveScoreState(shape, store, 0, out, "test").ok());
  const std::string good = out.str();

  auto load = [](const std::string& bytes) {
    const std::string path = WriteTempFile("corrupt_state.bin", bytes);
    std::ifstream in(path, std::ios::binary);
    baselines::ObservedShape shape_out;
    ScoreStore store_out;
    return baselines::LoadScoreState(shape_out, store_out, in, path);
  };
  // Truncated block payload.
  Status s = load(good.substr(0, good.size() - 64));
  EXPECT_FALSE(s.ok());
  // Flipped byte inside the first block's data: checksum failure. The
  // first block starts at the first 8-aligned absolute offset past the
  // 16-byte container header (everything before that is padding).
  std::string bad = good;
  const size_t base = good.find("tgsimblk");
  const size_t first_block = (base + 16 + 7) / 8 * 8;
  bad[first_block] ^= 0x4;
  s = load(bad);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.ToString();
  // Wrong container version.
  bad = good;
  int64_t version = 7;
  std::memcpy(bad.data() + good.find("tgsimblk") + 8, &version,
              sizeof(version));
  s = load(bad);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.ToString();
  std::remove(TempPath("corrupt_state.bin").c_str());
}

TEST(ScoreStateTest, DenseScoreArchivesAreRejected) {
  // Score states hold sparse rows only: an archive with dense n x n
  // tensors in a "scores" section and no score_store section fails the
  // load with a Status.
  baselines::ObservedShape shape = MakeShape(4, {3, 2});
  std::stringstream dense;
  {
    serialize::ArchiveWriter writer(dense);
    writer.BeginSection("shape");
    writer.WriteInt("num_nodes", shape.num_nodes);
    writer.WriteInt("num_timestamps", shape.num_timestamps);
    writer.WriteIntVector("edges_per_timestamp", shape.edges_per_timestamp);
    writer.BeginSection("scores");
    writer.WriteTensor("t0", MakeScores());
    writer.WriteTensor("t1", MakeScores());
    ASSERT_TRUE(writer.Finish().ok());
  }
  baselines::ObservedShape loaded_shape;
  ScoreStore loaded;
  Status s = baselines::LoadScoreState(loaded_shape, loaded, dense, "");
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
  EXPECT_NE(s.message().find("score_store"), std::string::npos)
      << s.ToString();
}

// ---------------------------------------------------------------------------
// End-to-end: truncation knob and thread-count independence.
// ---------------------------------------------------------------------------

struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() {
    parallel::ThreadPool::SetGlobalThreads(
        parallel::ThreadPool::DefaultNumThreads());
  }
};

TEST(SparseGenerationTest, TopKAtLeastNodesIsBitIdenticalToUntruncated) {
  // Acceptance pin: with score_topk >= n the sparse path draws the same
  // edges as the paper-exact untruncated path, for the same artifact
  // + seed, at 1, 2 and 8 threads.
  graphs::TemporalGraph observed = datasets::MakeMimicByName("DBLP", 0.02, 9);
  const int n = observed.num_nodes();

  auto fit_and_generate = [&](int64_t topk) {
    baselines::NetGanConfig config;
    config.epochs = 4;
    config.score_topk = topk;
    baselines::NetGanGenerator generator(config);
    Rng fit_rng(21);
    generator.Fit(observed, fit_rng);
    Rng gen_rng(33);
    return generator.Generate(gen_rng);
  };

  GlobalThreadsGuard guard;
  graphs::TemporalGraph reference = fit_and_generate(0);
  for (int threads : {1, 2, 8}) {
    parallel::ThreadPool::SetGlobalThreads(threads);
    graphs::TemporalGraph truncated = fit_and_generate(n);
    graphs::TemporalGraph untruncated = fit_and_generate(0);
    ASSERT_EQ(truncated.edges().size(), reference.edges().size())
        << threads << " threads";
    for (size_t i = 0; i < reference.edges().size(); ++i) {
      EXPECT_TRUE(truncated.edges()[i] == reference.edges()[i])
          << threads << " threads, edge " << i;
      EXPECT_TRUE(untruncated.edges()[i] == reference.edges()[i])
          << threads << " threads, edge " << i;
    }
  }
}

}  // namespace
}  // namespace tgsim::storage
