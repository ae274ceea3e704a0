#ifndef TGSIM_STORAGE_BLOCK_FILE_H_
#define TGSIM_STORAGE_BLOCK_FILE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tgsim::storage {

/// Version written into (and accepted from) every block file. Independent
/// of serialize::kArchiveFormatVersion: the text archive and the binary
/// block container evolve separately.
inline constexpr int64_t kBlockFileVersion = 1;

/// FNV-1a 64-bit hash — the per-block and index checksum. Deterministic,
/// dependency-free, and fast enough to verify multi-GiB payloads at load.
uint64_t Fnv1a64(const void* data, size_t size);

/// Paged binary container appended to a stream (typically after a text
/// archive in the same artifact file):
///
///   header    8-byte magic, i64 version
///   blocks    raw bytes, each padded so its ABSOLUTE file offset is
///             8-aligned (offsets are stored relative to the container
///             base so the preceding archive's size never matters)
///   index     per block: i64 name_len, name bytes, i64 rel_offset,
///             i64 size, u64 FNV-1a checksum
///   footer    i64 index_rel, i64 index_size, u64 index_checksum,
///             i64 block_count, 8-byte tail magic   (fixed 40 bytes)
///
/// The reader finds the footer at end-of-file, so a block file is always
/// the final payload of its artifact. Alignment is what lets the mmap
/// reader hand out direct int64/double pointers into the mapping.
class BlockFileWriter {
 public:
  /// Records the stream position as the container base and writes the
  /// header. The stream must be at its final write position (appending).
  explicit BlockFileWriter(std::ostream& out);

  BlockFileWriter(const BlockFileWriter&) = delete;
  BlockFileWriter& operator=(const BlockFileWriter&) = delete;

  /// Streams one named block. Names must be unique, non-empty, and at
  /// most 4096 bytes. Blocks are written (and checksummed) immediately —
  /// nothing is buffered besides the index entry.
  void AddBlock(const std::string& name, std::string_view bytes);

  /// Writes the index + footer. Call exactly once; returns IoError if any
  /// write failed.
  Status Finish();

 private:
  void WritePadding();
  void WriteI64(int64_t v);
  void WriteU64(uint64_t v);

  struct Entry {
    std::string name;
    int64_t rel_offset = 0;
    int64_t size = 0;
    uint64_t checksum = 0;
  };

  std::ostream& out_;
  int64_t base_mod8_ = 0;  // alignment phase of the container base
  int64_t rel_ = 0;        // bytes written since the header's first byte
  std::vector<Entry> entries_;
  bool finished_ = false;
};

/// Move-only lease on one block's bytes: an mmap region (munmap on
/// destruction, modeled on samgraph's Tensor::FromMmap). `data()` is
/// 8-byte aligned and valid for the lease's lifetime.
class MappedBlock {
 public:
  MappedBlock() = default;
  MappedBlock(MappedBlock&& other) noexcept;
  MappedBlock& operator=(MappedBlock&& other) noexcept;
  MappedBlock(const MappedBlock&) = delete;
  MappedBlock& operator=(const MappedBlock&) = delete;
  ~MappedBlock();

  const void* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }

 private:
  friend class BlockFileReader;

  const void* data_ = nullptr;
  size_t size_ = 0;
  void* map_addr_ = nullptr;  // munmap target (null for an empty block)
  size_t map_len_ = 0;
};

/// Random-access reader over a block file written by BlockFileWriter.
/// Copyable (cheap shared handle). All structural problems — truncation,
/// bad magic, unknown version, checksum mismatch, out-of-bounds index
/// entries — surface as Status errors at open or Map time, never a crash.
class BlockFileReader {
 public:
  /// A default-constructed reader holds no container; using it before
  /// assigning from OpenFile is a programming error.
  BlockFileReader() = default;

  /// Opens `path` and reads the container that starts at `base_offset`
  /// (the size of whatever precedes it, e.g. the artifact's text archive)
  /// and ends at end-of-file. Blocks are later mmap'd on demand.
  static Result<BlockFileReader> OpenFile(const std::string& path,
                                          int64_t base_offset);

  std::vector<std::string> BlockNames() const;
  bool HasBlock(const std::string& name) const;

  /// Maps one block's bytes. NotFound for unknown names; IoError if the
  /// OS mapping fails.
  Result<MappedBlock> Map(const std::string& name) const;

  /// Maps every block once and verifies its FNV-1a checksum against the
  /// index. InvalidArgument names the first corrupt block.
  Status VerifyChecksums() const;

  /// Sum of all block sizes (excluding index/padding) — the paging
  /// working-set upper bound.
  int64_t TotalBlockBytes() const;

 private:
  struct Impl;
  std::shared_ptr<const Impl> impl_;
};

}  // namespace tgsim::storage

#endif  // TGSIM_STORAGE_BLOCK_FILE_H_
