#include "datasets/io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

namespace tgsim::datasets {

namespace {

/// Number of magic bytes (the trailing NUL of the literal is not stored).
constexpr size_t kMagicBytes = sizeof(kBinaryEdgeListMagic) - 1;

/// Most characters std::to_chars writes for a T: every digit and a sign.
template <typename T>
constexpr size_t kMaxDecimalChars = std::numeric_limits<T>::digits10 + 2;

/// WriteEdgeList hands the stream blocks of this many bytes.
constexpr size_t kTextBlockBytes = 32 * 1024;

/// Longest `u v t\n` line: WriteEdgeList flushes its block whenever less
/// than this is left, so every line fits.
constexpr size_t kMaxTextLineBytes = 2 * kMaxDecimalChars<graphs::NodeId> +
                                     kMaxDecimalChars<graphs::Timestamp> + 3;

void WriteVarint(std::ostream& out, uint64_t value) {
  // LEB128: 7 payload bits per byte, high bit set on all but the last.
  while (value >= 0x80) {
    out.put(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.put(static_cast<char>(value));
}

/// Zigzag fold: small negative deltas stay small ((n << 1) ^ (n >> 63)).
uint64_t ZigZag(int64_t n) {
  return (static_cast<uint64_t>(n) << 1) ^
         static_cast<uint64_t>(n >> 63);
}

int64_t UnZigZag(uint64_t z) {
  return static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
}

Status ReadVarint(std::istream& in, const std::string& path,
                  uint64_t& value) {
  value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const int byte = in.get();
    if (byte < 0)
      return Status::InvalidArgument("truncated binary edge list: " + path);
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // The tenth byte holds the top single bit; anything above overflows.
      if (shift == 63 && (byte & 0x7e) != 0)
        return Status::InvalidArgument(
            "varint overflows 64 bits in binary edge list: " + path);
      return Status::Ok();
    }
  }
  return Status::InvalidArgument(
      "varint runs past 10 bytes in binary edge list: " + path);
}

/// The one shape check of both formats, run once the edges are read and
/// before Finalize allocates O(n + T).
Result<graphs::TemporalGraph> BuildLoadedGraph(
    int64_t num_nodes, int64_t num_timestamps,
    std::vector<graphs::TemporalEdge> edges, const std::string& path) {
  Status bound = graphs::CheckShapeJustifiedByEdges(
      num_nodes, num_timestamps, static_cast<int64_t>(edges.size()));
  if (!bound.ok())
    return Status::InvalidArgument("edge list " + bound.message() + ": " +
                                   path);
  return graphs::TemporalGraph::FromEdges(static_cast<int>(num_nodes),
                                          static_cast<int>(num_timestamps),
                                          std::move(edges));
}

/// Body of the binary format after the sniffed magic: varint counts, then
/// zigzag-varint (u, v, t) deltas against the previous edge (0,0,0 start).
Result<graphs::TemporalGraph> LoadEdgeListBinary(std::istream& in,
                                                 const std::string& path) {
  uint64_t nodes = 0, timestamps = 0, num_edges = 0;
  for (uint64_t* count : {&nodes, &timestamps, &num_edges}) {
    Status s = ReadVarint(in, path, *count);
    if (!s.ok()) return s;
  }
  constexpr uint64_t kMaxCount =
      static_cast<uint64_t>(std::numeric_limits<int>::max());
  if (nodes == 0 || nodes > kMaxCount || timestamps == 0 ||
      timestamps > kMaxCount)
    return Status::InvalidArgument(
        "binary edge list has out-of-range node/timestamp counts: " + path);
  std::vector<graphs::TemporalEdge> edges;
  // A lying edge count fails on the first truncated varint (each edge
  // needs at least 3 bytes), so only pre-reserve a bounded amount.
  edges.reserve(static_cast<size_t>(std::min<uint64_t>(num_edges, 1 << 20)));
  int64_t u = 0, v = 0, t = 0;
  for (uint64_t i = 0; i < num_edges; ++i) {
    for (int64_t* field : {&u, &v, &t}) {
      uint64_t delta = 0;
      Status s = ReadVarint(in, path, delta);
      if (!s.ok()) return s;
      *field += UnZigZag(delta);
    }
    if (u < 0 || v < 0 || static_cast<uint64_t>(u) >= nodes ||
        static_cast<uint64_t>(v) >= nodes)
      return Status::InvalidArgument(
          "node id out of range at edge " + std::to_string(i) +
          " of binary edge list " + path);
    if (t < 0 || static_cast<uint64_t>(t) >= timestamps)
      return Status::InvalidArgument(
          "timestamp out of range at edge " + std::to_string(i) +
          " of binary edge list " + path);
    edges.push_back({static_cast<graphs::NodeId>(u),
                     static_cast<graphs::NodeId>(v),
                     static_cast<graphs::Timestamp>(t)});
  }
  if (in.get() >= 0)
    return Status::InvalidArgument(
        "trailing bytes after the last edge in binary edge list: " + path);
  return BuildLoadedGraph(static_cast<int64_t>(nodes),
                          static_cast<int64_t>(timestamps), std::move(edges),
                          path);
}

}  // namespace

Result<graphs::TemporalGraph> LoadEdgeList(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open())
    return Status::IoError("cannot open edge list: " + path);

  // Sniff the binary magic; anything shorter or different is text.
  char magic[kMagicBytes];
  if (in.read(magic, static_cast<std::streamsize>(kMagicBytes)) &&
      std::memcmp(magic, kBinaryEdgeListMagic, kMagicBytes) == 0)
    return LoadEdgeListBinary(in, path);
  in.clear();
  in.seekg(0);

  int64_t header_nodes = -1, header_timestamps = -1;
  std::vector<graphs::TemporalEdge> edges;
  int64_t max_node = -1;
  int64_t min_t = std::numeric_limits<int64_t>::max();
  int64_t max_t = std::numeric_limits<int64_t>::min();

  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '%') continue;
    if (line[0] == '#') {
      std::istringstream hs(line.substr(1));
      std::string trailing;
      if (!(hs >> header_nodes >> header_timestamps) || (hs >> trailing) ||
          header_nodes <= 0 || header_timestamps <= 0 ||
          header_nodes > std::numeric_limits<int>::max() ||
          header_timestamps > std::numeric_limits<int>::max())
        return Status::InvalidArgument("malformed header at line " +
                                       std::to_string(line_no) + " of " +
                                       path);
      continue;
    }
    std::istringstream ls(line);
    int64_t u, v, t;
    if (!(ls >> u >> v >> t))
      return Status::InvalidArgument("malformed edge at line " +
                                     std::to_string(line_no) + " of " + path);
    std::string trailing;
    if (ls >> trailing)
      return Status::InvalidArgument(
          "trailing token '" + trailing + "' after edge at line " +
          std::to_string(line_no) + " of " + path +
          " (expected exactly 'u v t')");
    if (u < 0 || v < 0)
      return Status::InvalidArgument("negative node id at line " +
                                     std::to_string(line_no) + " of " + path);
    if (t < 0)
      return Status::InvalidArgument("negative timestamp at line " +
                                     std::to_string(line_no) + " of " + path);
    // With a header already seen (the documented layout puts it first),
    // bound violations are reported against the offending line.
    if (header_nodes > 0 && (u >= header_nodes || v >= header_nodes))
      return Status::InvalidArgument("node id exceeds header count at line " +
                                     std::to_string(line_no) + " of " + path);
    if (header_timestamps > 0 && t >= header_timestamps)
      return Status::InvalidArgument(
          "timestamp exceeds header count at line " +
          std::to_string(line_no) + " of " + path);
    edges.push_back({static_cast<graphs::NodeId>(u),
                     static_cast<graphs::NodeId>(v),
                     static_cast<graphs::Timestamp>(t)});
    max_node = std::max({max_node, u, v});
    min_t = std::min(min_t, t);
    max_t = std::max(max_t, t);
  }
  const bool has_header = header_nodes > 0;  // Header parse is all-or-error.
  // An empty graph is only well-defined when the header supplies the
  // node/timestamp counts; otherwise there is nothing to infer from.
  if (edges.empty() && !has_header)
    return Status::InvalidArgument("edge list is empty: " + path);

  // Header files store timestamps as-is (SaveEdgeList output round-trips
  // exactly); headerless external files are re-based to start at zero.
  // Negative timestamps were already rejected per line.
  if (!has_header) {
    for (auto& e : edges)
      e.t = static_cast<graphs::Timestamp>(e.t - min_t);
  }

  const int64_t num_nodes = has_header ? header_nodes : max_node + 1;
  const int64_t num_ts = has_header ? header_timestamps : max_t - min_t + 1;
  if (max_node >= num_nodes)
    return Status::InvalidArgument("node id exceeds header count in " + path);
  if ((has_header ? max_t : max_t - min_t) >= num_ts)
    return Status::InvalidArgument("timestamp exceeds header count in " +
                                   path);
  return BuildLoadedGraph(num_nodes, num_ts, std::move(edges), path);
}

Status SaveEdgeList(const graphs::TemporalGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot write: " + path);
  WriteEdgeList(g, out);
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

void WriteEdgeList(const graphs::TemporalGraph& g, std::ostream& out) {
  // Lines are formatted with std::to_chars, which writes classic digits
  // whatever the stream's locale, into a block the stream receives whole:
  // one write per block instead of one formatted insertion per field.
  std::array<char, kTextBlockBytes> block{};
  char* const end = block.data() + block.size();
  char* cursor = block.data();
  const auto field = [&cursor](auto value, char separator) {
    cursor = std::to_chars(cursor, cursor + kMaxDecimalChars<decltype(value)>,
                           value)
                 .ptr;
    *cursor++ = separator;
  };
  const auto flush = [&] {
    out.write(block.data(), cursor - block.data());
    cursor = block.data();
  };
  *cursor++ = '#';
  *cursor++ = ' ';
  field(g.num_nodes(), ' ');
  field(g.num_timestamps(), '\n');
  for (const graphs::TemporalEdge& e : g.edges()) {
    if (static_cast<size_t>(end - cursor) < kMaxTextLineBytes) flush();
    field(e.u, ' ');
    field(e.v, ' ');
    field(e.t, '\n');
  }
  flush();
}

Status SaveEdgeListBinary(const graphs::TemporalGraph& g,
                          const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) return Status::IoError("cannot write: " + path);
  WriteEdgeListBinary(g, out);
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

void WriteEdgeListBinary(const graphs::TemporalGraph& g, std::ostream& out) {
  out.write(kBinaryEdgeListMagic,
            static_cast<std::streamsize>(kMagicBytes));
  WriteVarint(out, static_cast<uint64_t>(g.num_nodes()));
  WriteVarint(out, static_cast<uint64_t>(g.num_timestamps()));
  WriteVarint(out, static_cast<uint64_t>(g.edges().size()));
  int64_t u = 0, v = 0, t = 0;
  for (const graphs::TemporalEdge& e : g.edges()) {
    WriteVarint(out, ZigZag(static_cast<int64_t>(e.u) - u));
    WriteVarint(out, ZigZag(static_cast<int64_t>(e.v) - v));
    WriteVarint(out, ZigZag(static_cast<int64_t>(e.t) - t));
    u = e.u;
    v = e.v;
    t = e.t;
  }
}

}  // namespace tgsim::datasets
