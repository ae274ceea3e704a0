#ifndef TGSIM_SERVE_JSON_H_
#define TGSIM_SERVE_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tgsim::serve {

/// Minimal JSON document model for the serve wire protocol (no external
/// dependency; the container image pins the toolchain). Supports the full
/// JSON value grammar — null, bool, number (int64 vs double preserved),
/// string with escapes, array, object — with a recursion-depth cap so a
/// hostile frame cannot blow the parser's stack. Object members keep
/// insertion order, so Serialize() output is stable and testable.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}

  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Int(int64_t i);
  static Json Double(double d);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Checked accessors (TGSIM_CHECK on type mismatch — protocol code must
  /// test the type first; see the As*Or helpers for the lenient forms).
  bool AsBool() const;
  int64_t AsInt() const;      // kInt only.
  double AsDouble() const;    // kInt or kDouble.
  const std::string& AsString() const;
  const std::vector<Json>& Items() const;                          // Array.
  const std::vector<std::pair<std::string, Json>>& Members() const;  // Object.

  /// Lenient accessors: the fallback when the type does not match.
  bool AsBoolOr(bool fallback) const { return is_bool() ? b_ : fallback; }
  int64_t AsIntOr(int64_t fallback) const { return is_int() ? i_ : fallback; }
  double AsDoubleOr(double fallback) const {
    return is_number() ? AsDouble() : fallback;
  }
  std::string AsStringOr(std::string fallback) const {
    return is_string() ? s_ : std::move(fallback);
  }

  /// Object member by key, or nullptr (also nullptr on non-objects).
  const Json* Find(const std::string& key) const;

  /// Array append (CHECKs array type).
  void Append(Json value);

  /// Object insert-or-replace (CHECKs object type; keeps first-insert
  /// position on replace).
  void Set(const std::string& key, Json value);

  /// Compact serialization: no whitespace, members in insertion order,
  /// doubles via %.17g (round-trip exact), strings minimally escaped
  /// (`\"`, `\\`, `\b`, `\f`, `\n`, `\r`, `\t`, lowercase `\u00XX` for the
  /// other bytes below 0x20, every other byte verbatim).
  std::string Serialize() const;

  /// Parses exactly one JSON value spanning the whole input (trailing
  /// non-whitespace is an error). InvalidArgument errors carry the byte
  /// offset. Nesting deeper than 64 levels is rejected.
  static Result<Json> Parse(const std::string& text);

 private:
  Type type_;
  bool b_ = false;
  int64_t i_ = 0;
  double d_ = 0.0;
  std::string s_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace tgsim::serve

#endif  // TGSIM_SERVE_JSON_H_
