// Minimal JSON document model for the analysis-service wire protocol.
//
// Built for determinism, not generality: objects are ordered
// key/value vectors (Dump emits fields in insertion order), and numbers
// print through a single canonical formatter (integral doubles as integers,
// everything else via shortest-round-trip std::to_chars). Two processes
// serializing the same value therefore produce byte-identical text — the
// property the content-addressed result cache and the 1-vs-N-client
// byte-identity checks rely on. Parsing accepts standard RFC 8259 JSON
// (BMP \u escapes included).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sm {

class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double d) : kind_(Kind::kNumber), number_(d) {}
  Json(int i) : kind_(Kind::kNumber), number_(i) {}
  Json(std::int64_t i) : kind_(Kind::kNumber), number_(static_cast<double>(i)) {}
  Json(std::uint64_t u) : kind_(Kind::kNumber), number_(static_cast<double>(u)) {}
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  Json(const char* s) : kind_(Kind::kString), string_(s) {}

  static Json MakeArray() { return Json(Kind::kArray); }
  static Json MakeObject() { return Json(Kind::kObject); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  // Typed accessors; throw JsonError on kind mismatch.
  bool AsBool() const;
  double AsDouble() const;
  std::uint64_t AsUint64() const;  // requires a non-negative integral number
  const std::string& AsString() const;
  const Array& AsArray() const;
  const Object& AsObject() const;

  // Object helpers. Find returns null when absent; Get* throw when the key
  // is absent or the wrong type (the message names the key).
  const Json* Find(const std::string& key) const;
  const std::string& GetString(const std::string& key) const;
  double GetDouble(const std::string& key, double fallback) const;
  std::uint64_t GetUint64(const std::string& key, std::uint64_t fallback) const;
  const std::string& GetStringOr(const std::string& key,
                                 const std::string& fallback) const;

  // Appends (object keys are not deduplicated — the writer controls order).
  Json& Set(std::string key, Json value);
  Json& Append(Json value);

  std::string Dump() const;
  static Json Parse(std::string_view text);  // throws JsonError

 private:
  explicit Json(Kind kind) : kind_(kind) {}
  void DumpTo(std::string& out) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

// Canonical number formatting used by Dump; exposed for tests.
std::string JsonNumberToString(double value);

// Escapes a string for embedding in a JSON double-quoted literal: the
// spelling Dump uses for strings and keys.
std::string JsonEscape(const std::string& s);

}  // namespace sm
