#ifndef TGSIM_DATASETS_IO_H_
#define TGSIM_DATASETS_IO_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "graph/temporal_graph.h"

namespace tgsim::datasets {

/// Magic bytes opening a binary edge-list file (see SaveEdgeListBinary).
inline constexpr char kBinaryEdgeListMagic[] = "tgsimedg";  // 8 bytes + NUL.

/// Loads a temporal graph from an edge-list file, sniffing the format:
/// a file opening with kBinaryEdgeListMagic is parsed as the compact
/// binary format, anything else as whitespace-separated text.
///
/// Text format: an optional header line `# <num_nodes> <num_timestamps>`,
/// followed by exactly one `u v t` triple per line. Lines starting with
/// `%` or empty lines are skipped. Without a header, node/timestamp counts
/// are inferred as (max id + 1) and timestamps are re-based to start at 0.
///
/// Malformed input is rejected with the offending line number and path in
/// the Status message: non-numeric or trailing tokens, negative node ids,
/// negative timestamps, and ids/timestamps exceeding the header counts.
/// Binary corruption (truncated varints, out-of-range ids, trailing
/// bytes) is likewise a Status, never a crash.
///
/// Shape bound (both formats): a file with m edges may declare or infer at
/// most max(2^21, 2m) nodes and max(2^21, m) timestamps. Larger counts are
/// InvalidArgument, checked before the graph's O(n + T) indexes are
/// allocated, so a few bytes cannot ask for billions of empty nodes or
/// snapshots. A sparse graph past that bound needs its ids remapped.
Result<graphs::TemporalGraph> LoadEdgeList(const std::string& path);

/// Writes the graph in the same text format (with header) so that
/// LoadEdgeList(SaveEdgeList(g)) round-trips.
Status SaveEdgeList(const graphs::TemporalGraph& g, const std::string& path);

/// Stream form of SaveEdgeList: writes the identical bytes to `out`
/// (SaveEdgeList delegates here). The serve daemon uses this to build the
/// generate-reply payload, which must byte-match a `tgsim generate` file.
/// The one text edge-list formatter: it writes plain decimal digits with
/// std::to_chars, so the bytes do not depend on the stream's locale (a
/// digit-grouping `numpunct` cannot turn `1899` into `1,899`) or its
/// format flags, and reach `out` in whole blocks of formatted lines.
void WriteEdgeList(const graphs::TemporalGraph& g, std::ostream& out);

/// Writes the graph in the compact binary format: the 8-byte magic,
/// LEB128 varints for num_nodes / num_timestamps / num_edges, then one
/// zigzag-varint delta triple (u, v, t) per edge against the previous
/// edge. Edges are written in the graph's canonical (t, u, v) order, so
/// deltas are small and text -> binary -> text round trips byte-identically.
/// Typically 3-6x smaller than the text form.
Status SaveEdgeListBinary(const graphs::TemporalGraph& g,
                          const std::string& path);

/// Stream form of SaveEdgeListBinary (which delegates here).
void WriteEdgeListBinary(const graphs::TemporalGraph& g, std::ostream& out);

}  // namespace tgsim::datasets

#endif  // TGSIM_DATASETS_IO_H_
