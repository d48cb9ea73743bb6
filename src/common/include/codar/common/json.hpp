#pragma once

// Minimal JSON value + recursive-descent parser, shared by the `codar
// serve` request protocol and the arch device-description loader.
// Dependency-free by design (the container bakes in no JSON library): full
// RFC 8259 value grammar — objects, arrays, strings with \uXXXX escapes
// (surrogate pairs included), numbers, booleans, null — with a
// nesting-depth cap so hostile request lines cannot overflow the parser
// stack. Numbers keep their raw source token alongside the double, so
// request ids round-trip byte-exactly into responses.

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace codar::common {

/// Raised on malformed JSON; `what()` includes the byte offset.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An immutable parsed JSON value.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses exactly one JSON value spanning all of `text` (trailing
  /// whitespace allowed). Throws JsonError otherwise.
  static Json parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw JsonError when the kind does not match.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Json>& items() const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// The verbatim source token of a number (e.g. "17", "-2.5e3").
  const std::string& raw_number() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< String value, or raw number token.
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;

  friend class JsonParser;
};

/// Renders `s` as a JSON string literal (quotes + escapes).
std::string json_quote(std::string_view s);

/// Renders `v` in its shortest round-trip form (to_chars without a
/// precision: the fewest digits that parse back to the same double), so a
/// rendered value is deterministic for a fixed platform and lossless to
/// reparse.
std::string json_number(double v);

}  // namespace codar::common
