#include "serialize/serialization.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <locale>
#include <ostream>
#include <utility>

namespace tgsim::serialize {

namespace {

constexpr char kArchiveMagic[] = "tgsim-archive";

/// Field name of the i-th parameter tensor ("p0", "p1", ...). Built by
/// appending (not `"p" + std::to_string(i)`) to sidestep a GCC 12
/// -Wrestrict false positive on const char* + std::string&&.
std::string ParamFieldName(size_t i) {
  std::string name = "p";
  name += std::to_string(i);
  return name;
}

/// Reads one double token. std::from_chars instead of stream extraction:
/// it is locale-independent and accepts the "nan"/"inf" tokens operator<<
/// emits for non-finite values, which classic-locale `>>` rejects — a
/// diverged model must round-trip, not fail to load as "truncated".
bool ReadDoubleToken(std::istream& in, double& value) {
  std::string token;
  if (!(in >> token)) return false;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc() && ptr == end;
}

/// Section/field names are single tokens so the line-oriented grammar
/// stays unambiguous.
bool IsToken(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name)
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return false;
  return true;
}

}  // namespace

ArchiveWriter::ArchiveWriter(std::ostream& out) : out_(out) {
  // Classic locale: "%.17g" doubles must never pick up a ',' decimal
  // separator, or the archive corrupts under e.g. de_DE.UTF-8. The
  // caller's locale/precision come back in Finish() (or the destructor),
  // so writing an archive into a long-lived stream leaves no residue.
  caller_locale_ = out_.imbue(std::locale::classic());
  caller_precision_ = out_.precision(17);
  out_ << kArchiveMagic << " " << kArchiveFormatVersion << "\n";
}

ArchiveWriter::~ArchiveWriter() {
  if (!finished_) RestoreStreamState();
}

void ArchiveWriter::RestoreStreamState() {
  out_.imbue(caller_locale_);
  out_.precision(caller_precision_);
}

void ArchiveWriter::BeginSection(const std::string& name) {
  TGSIM_CHECK(!finished_);
  TGSIM_CHECK(IsToken(name));
  out_ << "section " << name << "\n";
  in_section_ = true;
}

void ArchiveWriter::WriteInt(const std::string& name, int64_t value) {
  TGSIM_CHECK(in_section_ && !finished_);
  TGSIM_CHECK(IsToken(name));
  out_ << "i64 " << name << " " << value << "\n";
}

void ArchiveWriter::WriteDouble(const std::string& name, double value) {
  TGSIM_CHECK(in_section_ && !finished_);
  TGSIM_CHECK(IsToken(name));
  out_ << "f64 " << name << " " << value << "\n";
}

void ArchiveWriter::WriteString(const std::string& name,
                                const std::string& value) {
  TGSIM_CHECK(in_section_ && !finished_);
  TGSIM_CHECK(IsToken(name));
  out_ << "str " << name << " " << value.size() << "\n";
  out_.write(value.data(), static_cast<std::streamsize>(value.size()));
  out_ << "\n";
}

void ArchiveWriter::WriteIntVector(const std::string& name,
                                   const std::vector<int64_t>& values) {
  TGSIM_CHECK(in_section_ && !finished_);
  TGSIM_CHECK(IsToken(name));
  out_ << "vi64 " << name << " " << values.size();
  for (int64_t v : values) out_ << " " << v;
  out_ << "\n";
}

void ArchiveWriter::WriteDoubleVector(const std::string& name,
                                      const std::vector<double>& values) {
  TGSIM_CHECK(in_section_ && !finished_);
  TGSIM_CHECK(IsToken(name));
  out_ << "vf64 " << name << " " << values.size();
  for (double v : values) out_ << " " << v;
  out_ << "\n";
}

void ArchiveWriter::WriteTensor(const std::string& name,
                                const nn::Tensor& tensor) {
  TGSIM_CHECK(in_section_ && !finished_);
  TGSIM_CHECK(IsToken(name));
  out_ << "tensor " << name << " " << tensor.rows() << " " << tensor.cols();
  for (int64_t i = 0; i < tensor.size(); ++i) out_ << " " << tensor.data()[i];
  out_ << "\n";
}

Status ArchiveWriter::Finish() {
  TGSIM_CHECK(!finished_);
  finished_ = true;
  out_ << "end\n";
  out_.flush();
  RestoreStreamState();
  if (!out_.good()) return Status::IoError("archive write failed");
  return Status::Ok();
}

Result<ArchiveReader> ArchiveReader::Parse(std::istream& in) {
  // Parse under the classic locale, restoring the caller's on every exit
  // path (the stream may carry non-archive payload before and after).
  struct LocaleGuard {
    std::istream& stream;
    std::locale caller = stream.imbue(std::locale::classic());
    ~LocaleGuard() { stream.imbue(caller); }
  } locale_guard{in};
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kArchiveMagic)
    return Status::InvalidArgument(
        "not a tgsim archive (expected a '" + std::string(kArchiveMagic) +
        " <version>' header)");
  if (version != kArchiveFormatVersion)
    return Status::InvalidArgument(
        "unsupported archive format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kArchiveFormatVersion) +
        "; regenerate the artifact with a matching tgsim)");

  ArchiveReader reader;
  std::string current;
  std::map<std::string, Field>* fields = nullptr;
  auto context = [&](const std::string& name) {
    return current.empty() ? name : current + "." + name;
  };

  std::string tag;
  while (in >> tag) {
    if (tag == "end") return reader;
    if (tag == "section") {
      std::string name;
      if (!(in >> name))
        return Status::InvalidArgument("truncated archive: section name");
      if (reader.sections_.count(name) != 0)
        return Status::InvalidArgument("corrupt archive: duplicate section '" +
                                       name + "'");
      current = name;
      reader.section_order_.push_back(name);
      fields = &reader.sections_[name];
      continue;
    }

    // Every remaining tag is a field and needs an enclosing section.
    std::string name;
    if (!(in >> name))
      return Status::InvalidArgument("truncated archive: field name after '" +
                                     tag + "'");
    if (fields == nullptr)
      return Status::InvalidArgument("corrupt archive: field '" + name +
                                     "' appears before any section");
    if (fields->count(name) != 0)
      return Status::InvalidArgument("corrupt archive: duplicate field '" +
                                     context(name) + "'");
    Field field;
    if (tag == "i64") {
      field.kind = FieldKind::kInt;
      if (!(in >> field.i))
        return Status::InvalidArgument("truncated archive: field '" +
                                       context(name) + "'");
    } else if (tag == "f64") {
      field.kind = FieldKind::kDouble;
      if (!ReadDoubleToken(in, field.d))
        return Status::InvalidArgument("truncated archive: field '" +
                                       context(name) + "'");
    } else if (tag == "str") {
      field.kind = FieldKind::kString;
      int64_t length = 0;
      if (!(in >> length) || length < 0)
        return Status::InvalidArgument("truncated archive: field '" +
                                       context(name) + "'");
      in.get();  // The single separator after the byte count.
      // Chunked read: the declared length is untrusted (a corrupt byte
      // count must yield a Status, not a std::length_error), so allocate
      // only as much as the stream actually delivers.
      char buffer[1 << 16];
      int64_t remaining = length;
      while (remaining > 0) {
        int64_t chunk = std::min<int64_t>(
            remaining, static_cast<int64_t>(sizeof(buffer)));
        in.read(buffer, chunk);
        if (in.gcount() != chunk)
          return Status::InvalidArgument("truncated archive: field '" +
                                         context(name) +
                                         "' string payload");
        field.s.append(buffer, static_cast<size_t>(chunk));
        remaining -= chunk;
      }
    } else if (tag == "vi64" || tag == "vf64") {
      field.kind =
          tag == "vi64" ? FieldKind::kIntVector : FieldKind::kDoubleVector;
      int64_t count = 0;
      if (!(in >> count) || count < 0)
        return Status::InvalidArgument("truncated archive: field '" +
                                       context(name) + "'");
      for (int64_t i = 0; i < count; ++i) {
        bool ok = field.kind == FieldKind::kIntVector
                      ? static_cast<bool>(in >> field.iv.emplace_back())
                      : ReadDoubleToken(in, field.dv.emplace_back());
        if (!ok)
          return Status::InvalidArgument(
              "truncated archive: field '" + context(name) + "' entry " +
              std::to_string(i) + " of " + std::to_string(count));
      }
    } else if (tag == "tensor") {
      field.kind = FieldKind::kTensor;
      if (!(in >> field.tensor_rows >> field.tensor_cols) ||
          field.tensor_rows < 0 || field.tensor_cols < 0)
        return Status::InvalidArgument("truncated archive: field '" +
                                       context(name) + "' tensor header");
      int64_t count = static_cast<int64_t>(field.tensor_rows) *
                      field.tensor_cols;
      // No up-front reserve: corrupt dims must exhaust the stream into a
      // truncation Status, not trigger a giant allocation.
      for (int64_t i = 0; i < count; ++i) {
        if (!ReadDoubleToken(in, field.dv.emplace_back()))
          return Status::InvalidArgument(
              "truncated archive: field '" + context(name) + "' entry " +
              std::to_string(i) + " of " + std::to_string(count));
      }
    } else {
      return Status::InvalidArgument("corrupt archive: unknown record tag '" +
                                     tag + "'");
    }
    fields->emplace(name, std::move(field));
  }
  return Status::InvalidArgument(
      "truncated archive: missing 'end' terminator");
}

std::vector<std::string> ArchiveReader::SectionNames() const {
  return section_order_;
}

const ArchiveReader::Field* ArchiveReader::Find(
    const std::string& section, const std::string& name) const {
  auto sec = sections_.find(section);
  if (sec == sections_.end()) return nullptr;
  auto field = sec->second.find(name);
  if (field == sec->second.end()) return nullptr;
  return &field->second;
}

Status ArchiveReader::Missing(const std::string& section,
                              const std::string& name) const {
  std::string have;
  for (const std::string& s : section_order_)
    have += (have.empty() ? "" : ", ") + s;
  return Status::NotFound("archive has no field '" + section + "." + name +
                          "' (sections: " + (have.empty() ? "none" : have) +
                          ")");
}

Result<int64_t> ArchiveReader::GetInt(const std::string& section,
                                      const std::string& name) const {
  const Field* f = Find(section, name);
  if (f == nullptr) return Missing(section, name);
  if (f->kind != FieldKind::kInt)
    return Status::InvalidArgument("field '" + section + "." + name +
                                   "' is not an i64");
  return f->i;
}

Result<double> ArchiveReader::GetDouble(const std::string& section,
                                        const std::string& name) const {
  const Field* f = Find(section, name);
  if (f == nullptr) return Missing(section, name);
  if (f->kind != FieldKind::kDouble)
    return Status::InvalidArgument("field '" + section + "." + name +
                                   "' is not an f64");
  return f->d;
}

Result<std::string> ArchiveReader::GetString(const std::string& section,
                                             const std::string& name) const {
  const Field* f = Find(section, name);
  if (f == nullptr) return Missing(section, name);
  if (f->kind != FieldKind::kString)
    return Status::InvalidArgument("field '" + section + "." + name +
                                   "' is not a string");
  return f->s;
}

Result<std::vector<int64_t>> ArchiveReader::GetIntVector(
    const std::string& section, const std::string& name) const {
  const Field* f = Find(section, name);
  if (f == nullptr) return Missing(section, name);
  if (f->kind != FieldKind::kIntVector)
    return Status::InvalidArgument("field '" + section + "." + name +
                                   "' is not a vi64");
  return f->iv;
}

Result<std::vector<double>> ArchiveReader::GetDoubleVector(
    const std::string& section, const std::string& name) const {
  const Field* f = Find(section, name);
  if (f == nullptr) return Missing(section, name);
  if (f->kind != FieldKind::kDoubleVector)
    return Status::InvalidArgument("field '" + section + "." + name +
                                   "' is not a vf64");
  return f->dv;
}

Result<nn::Tensor> ArchiveReader::GetTensor(const std::string& section,
                                            const std::string& name) const {
  const Field* f = Find(section, name);
  if (f == nullptr) return Missing(section, name);
  if (f->kind != FieldKind::kTensor)
    return Status::InvalidArgument("field '" + section + "." + name +
                                   "' is not a tensor");
  return nn::Tensor(f->tensor_rows, f->tensor_cols, f->dv);
}

Status ArchiveReader::ReadTensorInto(const std::string& section,
                                     const std::string& name,
                                     nn::Tensor& dst) const {
  Status s = CheckTensorShape(section, name, dst.rows(), dst.cols());
  if (!s.ok()) return s;
  const Field* f = Find(section, name);
  for (int64_t i = 0; i < dst.size(); ++i)
    dst.data()[i] = f->dv[static_cast<size_t>(i)];
  return Status::Ok();
}

Status ArchiveReader::CheckTensorShape(const std::string& section,
                                       const std::string& name, int rows,
                                       int cols) const {
  const Field* f = Find(section, name);
  if (f == nullptr) return Missing(section, name);
  if (f->kind != FieldKind::kTensor)
    return Status::InvalidArgument("field '" + section + "." + name +
                                   "' is not a tensor");
  if (f->tensor_rows != rows || f->tensor_cols != cols)
    return Status::InvalidArgument(
        "tensor '" + section + "." + name + "' is " +
        std::to_string(f->tensor_rows) + "x" +
        std::to_string(f->tensor_cols) + " but the model expects " +
        std::to_string(rows) + "x" + std::to_string(cols) +
        " — was the model built with the same configuration?");
  return Status::Ok();
}

void WriteParams(ArchiveWriter& writer, const std::vector<nn::Var>& params) {
  writer.WriteInt("count", static_cast<int64_t>(params.size()));
  for (size_t i = 0; i < params.size(); ++i)
    writer.WriteTensor(ParamFieldName(i), params[i].value());
}

Status CheckParamShape(const ArchiveReader& reader, const std::string& section,
                       size_t index, int rows, int cols) {
  return reader.CheckTensorShape(section, ParamFieldName(index), rows, cols);
}

Status ReadParamsInto(const ArchiveReader& reader,
                      const std::string& section,
                      std::vector<nn::Var>& params) {
  Result<int64_t> count = reader.GetInt(section, "count");
  if (!count.ok()) return count.status();
  if (count.value() != static_cast<int64_t>(params.size()))
    return Status::InvalidArgument(
        "archive section '" + section + "' has " +
        std::to_string(count.value()) + " tensors, the model has " +
        std::to_string(params.size()) +
        " — was the model built with the same configuration?");
  for (size_t i = 0; i < params.size(); ++i) {
    Status s = reader.ReadTensorInto(section, ParamFieldName(i),
                                     params[i].mutable_value());
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace tgsim::serialize
