#include "serve/json.h"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/check.h"

namespace tgsim::serve {

namespace {

constexpr int kMaxDepth = 64;

Status ParseError(size_t offset, const std::string& what) {
  return Status::InvalidArgument("JSON parse error at byte " +
                                 std::to_string(offset) + ": " + what);
}

/// Recursive-descent parser over a borrowed buffer.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> ParseDocument() {
    SkipWhitespace();
    Json value;
    Status parsed = ParseValue(&value, 0);
    if (!parsed.ok()) return parsed;
    SkipWhitespace();
    if (pos_ != text_.size())
      return ParseError(pos_, "trailing characters after value");
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool ConsumeLiteral(const char* literal) {
    size_t len = 0;
    while (literal[len] != '\0') ++len;
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  Status ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth)
      return ParseError(pos_, "nesting deeper than " +
                                  std::to_string(kMaxDepth) + " levels");
    if (pos_ >= text_.size()) return ParseError(pos_, "unexpected end");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      std::string s;
      Status parsed = ParseString(&s);
      if (!parsed.ok()) return parsed;
      *out = Json::Str(std::move(s));
      return Status::Ok();
    }
    if (c == 't') {
      if (!ConsumeLiteral("true")) return ParseError(pos_, "bad literal");
      *out = Json::Bool(true);
      return Status::Ok();
    }
    if (c == 'f') {
      if (!ConsumeLiteral("false")) return ParseError(pos_, "bad literal");
      *out = Json::Bool(false);
      return Status::Ok();
    }
    if (c == 'n') {
      if (!ConsumeLiteral("null")) return ParseError(pos_, "bad literal");
      *out = Json::Null();
      return Status::Ok();
    }
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
    return ParseError(pos_, std::string("unexpected character '") + c + "'");
  }

  Status ParseObject(Json* out, int depth) {
    ++pos_;  // '{'
    *out = Json::Object();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return ParseError(pos_, "expected object key string");
      std::string key;
      Status parsed_key = ParseString(&key);
      if (!parsed_key.ok()) return parsed_key;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':')
        return ParseError(pos_, "expected ':' after object key");
      ++pos_;
      SkipWhitespace();
      Json value;
      Status parsed = ParseValue(&value, depth + 1);
      if (!parsed.ok()) return parsed;
      if (out->Find(key) != nullptr)
        return ParseError(pos_, "duplicate object key '" + key + "'");
      out->Set(key, std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size())
        return ParseError(pos_, "unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return Status::Ok();
      }
      return ParseError(pos_, "expected ',' or '}' in object");
    }
  }

  Status ParseArray(Json* out, int depth) {
    ++pos_;  // '['
    *out = Json::Array();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      Json value;
      Status parsed = ParseValue(&value, depth + 1);
      if (!parsed.ok()) return parsed;
      out->Append(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return ParseError(pos_, "unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::Ok();
      }
      return ParseError(pos_, "expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return ParseError(pos_, "unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::Ok();
      }
      if (c < 0x20)
        return ParseError(pos_, "unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return ParseError(pos_, "dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          Status parsed = ParseHex4(&code);
          if (!parsed.ok()) return parsed;
          AppendUtf8(out, code);
          break;
        }
        default:
          return ParseError(pos_ - 1,
                            std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  Status ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size())
      return ParseError(pos_, "truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_ + static_cast<size_t>(i)];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else return ParseError(pos_ + static_cast<size_t>(i),
                             "bad hex digit in \\u escape");
    }
    pos_ += 4;
    *out = code;
    return Status::Ok();
  }

  /// Encodes a BMP code point as UTF-8 (surrogate pairs are stored as the
  /// raw code units — the protocol only ever ships ASCII payloads).
  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status ParseNumber(Json* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-")
      return ParseError(start, "malformed number");
    errno = 0;
    char* end = nullptr;
    if (!is_double) {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        *out = Json::Int(static_cast<int64_t>(v));
        return Status::Ok();
      }
      // Integer overflow: fall through to the double path.
      errno = 0;
    }
    const double d = std::strtod(token.c_str(), &end);
    if (errno != 0 || end != token.c_str() + token.size() || !std::isfinite(d))
      return ParseError(start, "malformed number '" + token + "'");
    *out = Json::Double(d);
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// How SerializeInto writes one string byte: `size` output bytes, the
/// byte itself when `size` is 1 and `seq` otherwise.
struct ByteEscape {
  uint8_t size;
  char seq[6];
};

/// The escape of every byte value: the two-character escapes, lowercase
/// \u00XX for the other bytes below 0x20, and every other byte verbatim
/// (DEL and 0x80-0xFF included: strings are raw code units).
constexpr std::array<ByteEscape, 256> MakeByteEscapes() {
  constexpr char kHex[] = "0123456789abcdef";
  std::array<ByteEscape, 256> table{};
  for (int c = 0; c < 256; ++c)
    table[c] = c < 0x20 ? ByteEscape{6, {'\\', 'u', '0', '0', kHex[c >> 4],
                                         kHex[c & 0xf]}}
                        : ByteEscape{1, {}};
  constexpr std::pair<char, char> kShortEscapes[] = {
      {'"', '"'}, {'\\', '\\'}, {'\b', 'b'}, {'\f', 'f'},
      {'\n', 'n'}, {'\r', 'r'}, {'\t', 't'}};
  for (const auto& [c, letter] : kShortEscapes)
    table[static_cast<unsigned char>(c)] = {2, {'\\', letter}};
  return table;
}

constexpr std::array<ByteEscape, 256> kByteEscapes = MakeByteEscapes();

/// Appends `s` quoted and escaped: each run of verbatim bytes is copied
/// with one append, then the escape of the byte that ended it.
void EscapeInto(const std::string& s, std::string* out) {
  // Reserve `s` unescaped. An edge-list payload of hundreds of KB, whose
  // escapes (one per line) add a few percent, then reallocates once,
  // which measured cheaper than an exact sizing pass over it.
  out->reserve(out->size() + s.size() + 2);
  out->push_back('"');
  const char* run = s.data();
  const char* const end = run + s.size();
  for (const char* p = run; p != end; ++p) {
    const ByteEscape& escape = kByteEscapes[static_cast<unsigned char>(*p)];
    if (escape.size == 1) continue;
    out->append(run, static_cast<size_t>(p - run));
    out->append(escape.seq, escape.size);
    run = p + 1;
  }
  out->append(run, static_cast<size_t>(end - run));
  out->push_back('"');
}

void SerializeInto(const Json& v, std::string* out);

void SerializeNumber(double d, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  *out += buf;
}

void SerializeInto(const Json& v, std::string* out) {
  switch (v.type()) {
    case Json::Type::kNull:
      *out += "null";
      break;
    case Json::Type::kBool:
      *out += v.AsBool() ? "true" : "false";
      break;
    case Json::Type::kInt:
      *out += std::to_string(v.AsInt());
      break;
    case Json::Type::kDouble:
      SerializeNumber(v.AsDouble(), out);
      break;
    case Json::Type::kString:
      EscapeInto(v.AsString(), out);
      break;
    case Json::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& item : v.Items()) {
        if (!first) out->push_back(',');
        first = false;
        SerializeInto(item, out);
      }
      out->push_back(']');
      break;
    }
    case Json::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.Members()) {
        if (!first) out->push_back(',');
        first = false;
        EscapeInto(key, out);
        out->push_back(':');
        SerializeInto(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

Json Json::Bool(bool b) {
  Json v;
  v.type_ = Type::kBool;
  v.b_ = b;
  return v;
}

Json Json::Int(int64_t i) {
  Json v;
  v.type_ = Type::kInt;
  v.i_ = i;
  return v;
}

Json Json::Double(double d) {
  Json v;
  v.type_ = Type::kDouble;
  v.d_ = d;
  return v;
}

Json Json::Str(std::string s) {
  Json v;
  v.type_ = Type::kString;
  v.s_ = std::move(s);
  return v;
}

Json Json::Array() {
  Json v;
  v.type_ = Type::kArray;
  return v;
}

Json Json::Object() {
  Json v;
  v.type_ = Type::kObject;
  return v;
}

bool Json::AsBool() const {
  TGSIM_CHECK(is_bool());
  return b_;
}

int64_t Json::AsInt() const {
  TGSIM_CHECK(is_int());
  return i_;
}

double Json::AsDouble() const {
  TGSIM_CHECK(is_number());
  return is_int() ? static_cast<double>(i_) : d_;
}

const std::string& Json::AsString() const {
  TGSIM_CHECK(is_string());
  return s_;
}

const std::vector<Json>& Json::Items() const {
  TGSIM_CHECK(is_array());
  return items_;
}

const std::vector<std::pair<std::string, Json>>& Json::Members() const {
  TGSIM_CHECK(is_object());
  return members_;
}

const Json* Json::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

void Json::Append(Json value) {
  TGSIM_CHECK(is_array());
  items_.push_back(std::move(value));
}

void Json::Set(const std::string& key, Json value) {
  TGSIM_CHECK(is_object());
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

std::string Json::Serialize() const {
  std::string out;
  SerializeInto(*this, &out);
  return out;
}

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

}  // namespace tgsim::serve
