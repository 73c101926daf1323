#include "service/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace sm {

namespace {

[[noreturn]] void Fail(const std::string& what) { throw JsonError(what); }

}  // namespace

bool Json::AsBool() const {
  if (kind_ != Kind::kBool) Fail("json value is not a bool");
  return bool_;
}

double Json::AsDouble() const {
  if (kind_ != Kind::kNumber) Fail("json value is not a number");
  return number_;
}

std::uint64_t Json::AsUint64() const {
  const double d = AsDouble();
  // The bound must be >=: 18446744073709551616.0 is exactly 2^64, and
  // casting it (or anything above) to uint64_t is undefined behavior.
  if (d < 0 || std::nearbyint(d) != d || d >= 18446744073709551616.0) {
    Fail("json number is not an unsigned integer: " + JsonNumberToString(d));
  }
  return static_cast<std::uint64_t>(d);
}

const std::string& Json::AsString() const {
  if (kind_ != Kind::kString) Fail("json value is not a string");
  return string_;
}

const Json::Array& Json::AsArray() const {
  if (kind_ != Kind::kArray) Fail("json value is not an array");
  return array_;
}

const Json::Object& Json::AsObject() const {
  if (kind_ != Kind::kObject) Fail("json value is not an object");
  return object_;
}

const Json* Json::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) Fail("json value is not an object");
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::string& Json::GetString(const std::string& key) const {
  const Json* v = Find(key);
  if (v == nullptr) Fail("missing required field: " + key);
  if (!v->is_string()) Fail("field is not a string: " + key);
  return v->string_;
}

double Json::GetDouble(const std::string& key, double fallback) const {
  const Json* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) Fail("field is not a number: " + key);
  return v->number_;
}

std::uint64_t Json::GetUint64(const std::string& key,
                              std::uint64_t fallback) const {
  const Json* v = Find(key);
  if (v == nullptr) return fallback;
  return v->AsUint64();
}

const std::string& Json::GetStringOr(const std::string& key,
                                     const std::string& fallback) const {
  const Json* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) Fail("field is not a string: " + key);
  return v->string_;
}

Json& Json::Set(std::string key, Json value) {
  if (kind_ != Kind::kObject) Fail("Set on a non-object json value");
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::Append(Json value) {
  if (kind_ != Kind::kArray) Fail("Append on a non-array json value");
  array_.push_back(std::move(value));
  return *this;
}

std::string JsonEscape(const std::string& s) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default: {
        // RFC 8259: every control character must be escaped, not just the
        // ones with shorthand forms.
        const unsigned char u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
      }
    }
  }
  return out;
}

std::string JsonNumberToString(double value) {
  if (!std::isfinite(value)) {
    // JSON has no inf/nan; the result encoders clamp before this, but keep
    // the serializer total rather than emitting invalid output.
    return value > 0 ? "1e308" : (value < 0 ? "-1e308" : "0");
  }
  // Integral values inside the exactly-representable range print as
  // integers ("16", not "16.0") for stable, compact output.
  if (std::nearbyint(value) == value && std::abs(value) < 9.007199254740992e15) {
    char buf[32];
    auto [ptr, ec] = std::to_chars(
        buf, buf + sizeof buf, static_cast<long long>(value));
    (void)ec;
    return std::string(buf, ptr);
  }
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;
  return std::string(buf, ptr);
}

void Json::DumpTo(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      out += JsonNumberToString(number_);
      break;
    case Kind::kString:
      out += '"';
      out += JsonEscape(string_);
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Json& v : array_) {
        if (!first) out += ',';
        first = false;
        v.DumpTo(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += JsonEscape(k);
        out += "\":";
        v.DumpTo(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json ParseDocument() {
    Json v = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after json value");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw JsonError(what + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of json");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json ParseValue() {
    SkipWhitespace();
    const char c = Peek();
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return Json(ParseString());
      case 't':
        if (!Literal("true")) Fail("bad literal");
        return Json(true);
      case 'f':
        if (!Literal("false")) Fail("bad literal");
        return Json(false);
      case 'n':
        if (!Literal("null")) Fail("bad literal");
        return Json();
      default:
        return ParseNumber();
    }
  }

  Json ParseObject() {
    Expect('{');
    Json obj = Json::MakeObject();
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      obj.Set(std::move(key), ParseValue());
      SkipWhitespace();
      const char c = Peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') Fail("expected ',' or '}' in object");
    }
  }

  Json ParseArray() {
    Expect('[');
    Json arr = Json::MakeArray();
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.Append(ParseValue());
      SkipWhitespace();
      const char c = Peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') Fail("expected ',' or ']' in array");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        Fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          const unsigned cp = ParseHex4();
          // BMP only; surrogate pairs are rejected (the protocol never emits
          // them — JsonEscape only produces \u00XX).
          if (cp >= 0xd800 && cp <= 0xdfff) Fail("surrogate in \\u escape");
          AppendUtf8(out, cp);
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  unsigned ParseHex4() {
    if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else Fail("bad hex digit in \\u escape");
    }
    return value;
  }

  static void AppendUtf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  Json ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) Fail("expected a json value");
    double value = 0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_) Fail("bad number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::Parse(std::string_view text) { return Parser(text).ParseDocument(); }

}  // namespace sm
