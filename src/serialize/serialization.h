#ifndef TGSIM_SERIALIZE_SERIALIZATION_H_
#define TGSIM_SERIALIZE_SERIALIZATION_H_

#include <cstdint>
#include <ios>
#include <iosfwd>
#include <locale>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/autograd.h"
#include "nn/tensor.h"

/// Model-artifact serialization (serialize tier; see ROADMAP layering:
/// common -> ... -> nn -> serialize -> storage -> baselines -> core).
/// The sectioned archive below is the on-disk format of every generator's
/// fitted state, so a simulator can be trained once and shipped as a
/// self-describing artifact that regenerates graphs without the training
/// data.

namespace tgsim::serialize {

/// Version written into (and accepted from) the archive header. Bump it
/// whenever a field's meaning or encoding changes incompatibly; readers
/// reject newer versions with an actionable message instead of
/// misinterpreting bytes.
inline constexpr int kArchiveFormatVersion = 1;

/// Streams a versioned, sectioned, line-oriented text archive:
///
///   tgsim-archive 1
///   section <name>
///   i64 <field> <value>
///   f64 <field> <value>              (%.17g — exact double round trip)
///   vi64 <field> <count> v v ...
///   vf64 <field> <count> v v ...
///   tensor <field> <rows> <cols> v v ...
///   str <field> <byte-count>
///   <raw bytes>
///   ...
///   end
///
/// The writer imbues the classic "C" locale on the stream so numeric
/// fields round-trip under any process locale (a comma decimal separator
/// would corrupt the file); the caller's locale and precision are
/// restored by Finish() (or the destructor). Write calls never throw and
/// never report errors individually; Finish() writes the terminator and
/// returns the stream verdict, mirroring the std::ostream error model.
class ArchiveWriter {
 public:
  /// Writes the header. Section/field names must be non-empty single
  /// tokens (no whitespace) — violations are programming errors.
  explicit ArchiveWriter(std::ostream& out);
  ~ArchiveWriter();

  ArchiveWriter(const ArchiveWriter&) = delete;
  ArchiveWriter& operator=(const ArchiveWriter&) = delete;

  /// Starts a named section; subsequent Write calls land in it. Names must
  /// be unique within one archive.
  void BeginSection(const std::string& name);

  void WriteInt(const std::string& name, int64_t value);
  void WriteDouble(const std::string& name, double value);
  /// Arbitrary bytes (length-prefixed; newlines and spaces are fine).
  void WriteString(const std::string& name, const std::string& value);
  void WriteIntVector(const std::string& name,
                      const std::vector<int64_t>& values);
  void WriteDoubleVector(const std::string& name,
                         const std::vector<double>& values);
  void WriteTensor(const std::string& name, const nn::Tensor& tensor);

  /// Writes the `end` terminator and returns IoError if any write failed.
  /// Call exactly once; the stream is left positioned after the archive so
  /// another archive (or trailing payload) can follow in the same file.
  Status Finish();

 private:
  void RestoreStreamState();

  std::ostream& out_;
  std::locale caller_locale_;
  std::streamsize caller_precision_;
  bool in_section_ = false;
  bool finished_ = false;
};

/// Parses one archive eagerly into memory and serves typed field lookups.
///
/// Errors are Status-typed, never a crash: bad magic and version mismatch
/// are InvalidArgument, truncation/corruption name the offending section
/// and field, and a missing section/field is NotFound (listing what the
/// archive does contain). Parse stops at the `end` terminator, leaving the
/// stream positioned for any payload that follows.
class ArchiveReader {
 public:
  static Result<ArchiveReader> Parse(std::istream& in);

  std::vector<std::string> SectionNames() const;

  /// Typed getters: NotFound for a missing section/field, InvalidArgument
  /// when the field holds a different type.
  Result<int64_t> GetInt(const std::string& section,
                         const std::string& name) const;
  Result<double> GetDouble(const std::string& section,
                           const std::string& name) const;
  Result<std::string> GetString(const std::string& section,
                                const std::string& name) const;
  Result<std::vector<int64_t>> GetIntVector(const std::string& section,
                                            const std::string& name) const;
  Result<std::vector<double>> GetDoubleVector(const std::string& section,
                                              const std::string& name) const;
  Result<nn::Tensor> GetTensor(const std::string& section,
                               const std::string& name) const;

  /// Copies a tensor field into `dst`, rejecting shape mismatches with a
  /// message that names both shapes (the config-vs-artifact guard).
  Status ReadTensorInto(const std::string& section, const std::string& name,
                        nn::Tensor& dst) const;

  /// ReadTensorInto's shape guard alone, against rows x cols: checks a
  /// stored tensor without copying it or allocating its destination.
  Status CheckTensorShape(const std::string& section, const std::string& name,
                          int rows, int cols) const;

 private:
  enum class FieldKind { kInt, kDouble, kString, kIntVector, kDoubleVector,
                         kTensor };
  struct Field {
    FieldKind kind = FieldKind::kInt;
    int64_t i = 0;
    double d = 0.0;
    std::string s;
    std::vector<int64_t> iv;
    std::vector<double> dv;
    int tensor_rows = 0;
    int tensor_cols = 0;  // Tensor payload lives in `dv`, row-major.
  };

  ArchiveReader() = default;
  const Field* Find(const std::string& section,
                    const std::string& name) const;
  Status Missing(const std::string& section, const std::string& name) const;

  std::vector<std::string> section_order_;
  std::map<std::string, std::map<std::string, Field>> sections_;
};

/// Writes a parameter set as consecutive tensor fields (`count`, `p0`,
/// `p1`, ...) of the archive's current section. Pair with ReadParamsInto.
void WriteParams(ArchiveWriter& writer, const std::vector<nn::Var>& params);

/// Checks that tensor `index` of a WriteParams section is rows x cols. A
/// loader calls it before building a model whose tables are sized by the
/// artifact's own shape fields, so an edited shape is rejected without
/// allocating those tables.
Status CheckParamShape(const ArchiveReader& reader, const std::string& section,
                       size_t index, int rows, int cols);

/// Loads tensors written by WriteParams into an existing parameter set.
/// The parameter count and every shape must match (the model must have
/// been built with the same configuration).
Status ReadParamsInto(const ArchiveReader& reader,
                      const std::string& section,
                      std::vector<nn::Var>& params);

}  // namespace tgsim::serialize

#endif  // TGSIM_SERIALIZE_SERIALIZATION_H_
