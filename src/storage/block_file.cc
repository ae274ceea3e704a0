#include "storage/block_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <ostream>
#include <utility>

#include "common/check.h"

namespace tgsim::storage {

namespace {

constexpr char kMagic[8] = {'t', 'g', 's', 'i', 'm', 'b', 'l', 'k'};
constexpr char kTailMagic[8] = {'k', 'l', 'b', 'm', 'i', 's', 'g', 't'};
constexpr int64_t kHeaderBytes = 16;
constexpr int64_t kFooterBytes = 40;
constexpr int64_t kMaxNameBytes = 4096;

}  // namespace

uint64_t Fnv1a64(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

BlockFileWriter::BlockFileWriter(std::ostream& out) : out_(out) {
  const auto pos = out_.tellp();
  base_mod8_ = pos < 0 ? 0 : static_cast<int64_t>(pos) % 8;
  out_.write(kMagic, sizeof(kMagic));
  rel_ += static_cast<int64_t>(sizeof(kMagic));
  WriteI64(kBlockFileVersion);
}

void BlockFileWriter::WriteI64(int64_t v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
  rel_ += static_cast<int64_t>(sizeof(v));
}

void BlockFileWriter::WriteU64(uint64_t v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
  rel_ += static_cast<int64_t>(sizeof(v));
}

void BlockFileWriter::WritePadding() {
  // Pad so the next byte's ABSOLUTE offset (base + rel) is 8-aligned —
  // the mmap reader hands out direct typed pointers at that offset.
  static const char zeros[8] = {0};
  const int64_t misalign = (base_mod8_ + rel_) % 8;
  if (misalign != 0) {
    const int64_t pad = 8 - misalign;
    out_.write(zeros, static_cast<std::streamsize>(pad));
    rel_ += pad;
  }
}

void BlockFileWriter::AddBlock(const std::string& name,
                               std::string_view bytes) {
  TGSIM_CHECK(!finished_);
  TGSIM_CHECK(!name.empty());
  TGSIM_CHECK_LE(static_cast<int64_t>(name.size()), kMaxNameBytes);
  for (const Entry& e : entries_) TGSIM_CHECK(e.name != name);
  WritePadding();
  Entry entry;
  entry.name = name;
  entry.rel_offset = rel_;
  entry.size = static_cast<int64_t>(bytes.size());
  entry.checksum = Fnv1a64(bytes.data(), bytes.size());
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  rel_ += entry.size;
  entries_.push_back(std::move(entry));
}

Status BlockFileWriter::Finish() {
  TGSIM_CHECK(!finished_);
  finished_ = true;
  WritePadding();
  const int64_t index_rel = rel_;
  // Serialize the index to memory first: the footer needs its checksum.
  std::string index;
  auto append_i64 = [&index](int64_t v) {
    index.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto append_u64 = [&index](uint64_t v) {
    index.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (const Entry& e : entries_) {
    append_i64(static_cast<int64_t>(e.name.size()));
    index.append(e.name);
    append_i64(e.rel_offset);
    append_i64(e.size);
    append_u64(e.checksum);
  }
  out_.write(index.data(), static_cast<std::streamsize>(index.size()));
  rel_ += static_cast<int64_t>(index.size());
  WriteI64(index_rel);
  WriteI64(static_cast<int64_t>(index.size()));
  WriteU64(Fnv1a64(index.data(), index.size()));
  WriteI64(static_cast<int64_t>(entries_.size()));
  out_.write(kTailMagic, sizeof(kTailMagic));
  rel_ += static_cast<int64_t>(sizeof(kTailMagic));
  out_.flush();
  if (!out_) {
    return Status::IoError("block file: stream write failed");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------

MappedBlock::MappedBlock(MappedBlock&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      map_addr_(other.map_addr_),
      map_len_(other.map_len_),
      keepalive_(std::move(other.keepalive_)) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.map_addr_ = nullptr;
  other.map_len_ = 0;
}

MappedBlock& MappedBlock::operator=(MappedBlock&& other) noexcept {
  if (this != &other) {
    this->~MappedBlock();
    new (this) MappedBlock(std::move(other));
  }
  return *this;
}

MappedBlock::~MappedBlock() {
  if (map_addr_ != nullptr) {
    ::munmap(map_addr_, map_len_);
    map_addr_ = nullptr;
  }
}

// ---------------------------------------------------------------------------

struct BlockFileReader::Impl {
  // File mode: fd >= 0, blocks mmap'd on demand. Buffer mode: fd == -1,
  // `buffer` holds the container with `pad` leading bytes restoring the
  // writer's absolute 8-byte alignment phase.
  int fd = -1;
  int64_t base = 0;
  std::vector<std::byte> buffer;
  size_t pad = 0;
  int64_t region_size = 0;

  struct Entry {
    std::string name;
    int64_t rel_offset = 0;
    int64_t size = 0;
    uint64_t checksum = 0;
  };
  std::vector<Entry> entries;
  std::map<std::string, size_t> by_name;

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  /// Parses header, footer, and index out of an already-set-up Impl (fd
  /// or buffer mode). Shared by both open paths.
  Status Parse();

  Status ReadAt(int64_t rel, void* dst, size_t n) const {
    if (fd >= 0) {
      size_t done = 0;
      while (done < n) {
        const ssize_t got =
            ::pread(fd, static_cast<char*>(dst) + done, n - done,
                    static_cast<off_t>(base + rel + static_cast<int64_t>(done)));
        if (got < 0) {
          return Status::IoError("block file: pread failed");
        }
        if (got == 0) {
          return Status::InvalidArgument(
              "block file: truncated (unexpected end of file)");
        }
        done += static_cast<size_t>(got);
      }
      return Status::Ok();
    }
    std::memcpy(dst, buffer.data() + pad + static_cast<size_t>(rel), n);
    return Status::Ok();
  }
};

Status BlockFileReader::Impl::Parse() {
  Impl& impl = *this;
  if (impl.region_size < kHeaderBytes + kFooterBytes) {
    return Status::InvalidArgument(
        "block file: " + std::to_string(impl.region_size) +
        " bytes is too small for header + footer (truncated?)");
  }
  char header[kHeaderBytes];
  Status st = impl.ReadAt(0, header, sizeof(header));
  if (!st.ok()) return st;
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("block file: bad magic");
  }
  int64_t version = 0;
  std::memcpy(&version, header + 8, sizeof(version));
  if (version != kBlockFileVersion) {
    return Status::InvalidArgument(
        "block file version " + std::to_string(version) +
        " (this build reads " + std::to_string(kBlockFileVersion) + ")");
  }
  char footer[kFooterBytes];
  st = impl.ReadAt(impl.region_size - kFooterBytes, footer, sizeof(footer));
  if (!st.ok()) return st;
  if (std::memcmp(footer + 32, kTailMagic, sizeof(kTailMagic)) != 0) {
    return Status::InvalidArgument(
        "block file: bad tail magic (truncated or overwritten?)");
  }
  int64_t index_rel = 0;
  int64_t index_size = 0;
  uint64_t index_checksum = 0;
  int64_t block_count = 0;
  std::memcpy(&index_rel, footer + 0, 8);
  std::memcpy(&index_size, footer + 8, 8);
  std::memcpy(&index_checksum, footer + 16, 8);
  std::memcpy(&block_count, footer + 24, 8);
  if (index_rel < kHeaderBytes || index_size < 0 || block_count < 0 ||
      index_rel + index_size > impl.region_size - kFooterBytes) {
    return Status::InvalidArgument(
        "block file: index location out of bounds");
  }
  std::string index(static_cast<size_t>(index_size), '\0');
  st = impl.ReadAt(index_rel, index.data(), index.size());
  if (!st.ok()) return st;
  if (Fnv1a64(index.data(), index.size()) != index_checksum) {
    return Status::InvalidArgument("block file: index checksum mismatch");
  }
  size_t cursor = 0;
  auto take_i64 = [&index, &cursor](int64_t* v) {
    if (cursor + 8 > index.size()) return false;
    std::memcpy(v, index.data() + cursor, 8);
    cursor += 8;
    return true;
  };
  for (int64_t i = 0; i < block_count; ++i) {
    Entry entry;
    int64_t name_len = 0;
    if (!take_i64(&name_len) || name_len <= 0 || name_len > kMaxNameBytes ||
        cursor + static_cast<size_t>(name_len) > index.size()) {
      return Status::InvalidArgument(
          "block file: corrupt index entry " + std::to_string(i));
    }
    entry.name.assign(index.data() + cursor, static_cast<size_t>(name_len));
    cursor += static_cast<size_t>(name_len);
    int64_t checksum_bits = 0;
    if (!take_i64(&entry.rel_offset) || !take_i64(&entry.size) ||
        !take_i64(&checksum_bits)) {
      return Status::InvalidArgument(
          "block file: corrupt index entry " + std::to_string(i));
    }
    std::memcpy(&entry.checksum, &checksum_bits, 8);
    if (entry.rel_offset < kHeaderBytes || entry.size < 0 ||
        entry.rel_offset + entry.size > index_rel) {
      return Status::InvalidArgument(
          "block file: block '" + entry.name + "' out of bounds");
    }
    if ((impl.base + entry.rel_offset) % 8 != 0) {
      return Status::InvalidArgument(
          "block file: block '" + entry.name + "' is not 8-byte aligned");
    }
    if (!impl.by_name.emplace(entry.name, impl.entries.size()).second) {
      return Status::InvalidArgument(
          "block file: duplicate block name '" + entry.name + "'");
    }
    impl.entries.push_back(std::move(entry));
  }
  if (cursor != index.size()) {
    return Status::InvalidArgument("block file: trailing bytes in index");
  }
  return Status::Ok();
}

Result<BlockFileReader> BlockFileReader::OpenFile(const std::string& path,
                                                  int64_t base_offset) {
  auto impl = std::make_shared<Impl>();
  impl->fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (impl->fd < 0) {
    return Status::IoError("block file: cannot open '" + path + "'");
  }
  struct stat sb;
  if (::fstat(impl->fd, &sb) != 0) {
    return Status::IoError("block file: cannot stat '" + path + "'");
  }
  if (base_offset < 0 || base_offset > static_cast<int64_t>(sb.st_size)) {
    return Status::InvalidArgument(
        "block file: base offset " + std::to_string(base_offset) +
        " outside '" + path + "' (" + std::to_string(sb.st_size) + " bytes)");
  }
  impl->base = base_offset;
  impl->region_size = static_cast<int64_t>(sb.st_size) - base_offset;
  Status st = impl->Parse();
  if (!st.ok()) return st;
  BlockFileReader reader;
  reader.impl_ = std::move(impl);
  return reader;
}

Result<BlockFileReader> BlockFileReader::FromBuffer(std::string_view bytes,
                                                    int64_t base_offset) {
  if (base_offset < 0) {
    return Status::InvalidArgument("block file: negative base offset");
  }
  auto impl = std::make_shared<Impl>();
  // Re-create the writer's alignment phase: block rel offsets satisfy
  // (base + rel) % 8 == 0, and operator new aligns the vector's data to
  // at least 16, so pad + rel lands every block on an 8-byte boundary.
  impl->pad = static_cast<size_t>(base_offset % 8);
  impl->base = base_offset;
  impl->region_size = static_cast<int64_t>(bytes.size());
  impl->buffer.resize(impl->pad + bytes.size());
  // An empty buffer's data() may be null, which memcpy must never see.
  if (!bytes.empty())
    std::memcpy(impl->buffer.data() + impl->pad, bytes.data(), bytes.size());
  Status st = impl->Parse();
  if (!st.ok()) return st;
  BlockFileReader reader;
  reader.impl_ = std::move(impl);
  return reader;
}

std::vector<std::string> BlockFileReader::BlockNames() const {
  std::vector<std::string> names;
  names.reserve(impl_->entries.size());
  for (const auto& e : impl_->entries) names.push_back(e.name);
  return names;
}

bool BlockFileReader::HasBlock(const std::string& name) const {
  return impl_->by_name.count(name) > 0;
}

int64_t BlockFileReader::TotalBlockBytes() const {
  int64_t total = 0;
  for (const auto& e : impl_->entries) total += e.size;
  return total;
}

Result<MappedBlock> BlockFileReader::Map(const std::string& name) const {
  const auto it = impl_->by_name.find(name);
  if (it == impl_->by_name.end()) {
    return Status::NotFound("block file: no block named '" + name + "'");
  }
  const Impl::Entry& entry = impl_->entries[it->second];
  MappedBlock block;
  block.size_ = static_cast<size_t>(entry.size);
  if (impl_->fd >= 0) {
    const int64_t abs = impl_->base + entry.rel_offset;
    const int64_t page = static_cast<int64_t>(::sysconf(_SC_PAGESIZE));
    const int64_t map_start = (abs / page) * page;
    const size_t lead = static_cast<size_t>(abs - map_start);
    const size_t map_len = lead + block.size_;
    if (map_len == 0) {
      // Zero-length mmap is EINVAL; an empty block needs no mapping.
      block.data_ = "";
      block.keepalive_ = impl_;
      return block;
    }
    void* addr = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE, impl_->fd,
                        static_cast<off_t>(map_start));
    if (addr == MAP_FAILED) {
      return Status::IoError("block file: mmap failed for block '" + name +
                             "'");
    }
    block.map_addr_ = addr;
    block.map_len_ = map_len;
    block.data_ = static_cast<const char*>(addr) + lead;
  } else {
    block.data_ =
        impl_->buffer.data() + impl_->pad + static_cast<size_t>(entry.rel_offset);
  }
  block.keepalive_ = impl_;
  return block;
}

Status BlockFileReader::VerifyChecksums() const {
  for (const auto& e : impl_->entries) {
    auto block = Map(e.name);
    if (!block.ok()) return block.status();
    const uint64_t got = Fnv1a64(block.value().data(), block.value().size());
    if (got != e.checksum) {
      return Status::InvalidArgument("block file: checksum mismatch in block '" +
                                     e.name + "'");
    }
  }
  return Status::Ok();
}

}  // namespace tgsim::storage
