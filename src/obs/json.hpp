// The repository's one JSON codec: the canonical encoder every emitter
// writes with (hsp/1 answers, metrics, flight and trace dumps, run
// reports) and a minimal strict parser that reads those artifacts back
// without an external dependency.
//
// Encoder: json_quote / json_number / json_int produce the canonical
// tokens — escaped strings, shortest round-trip numbers — so that
// parse(encode(x)) == x. Member order and layout stay with each caller.
// server/protocol.hpp re-exports the three names for the wire code.
//
// Parser: not a general-purpose JSON library — no comments, no trailing
// commas. \uXXXX escapes below U+0080 decode to their byte, which makes
// parse() the exact inverse of json_quote(); higher code points are
// preserved verbatim rather than decoded (the emitters never produce
// them). Numbers are correctly rounded (std::from_chars, with strtod's
// ±inf and ±0 where a literal overflows or underflows).
//
// Thread-safety: every function is pure; Value is a plain value type.
// Complexity: O(input length), recursion depth bounded by kMaxDepth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace hetsched::obs::json {

class Value;
using Array = std::vector<Value>;
/// Transparent comparator: find() looks a member up by string_view
/// without building a std::string key.
using Object = std::map<std::string, Value, std::less<>>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  explicit Value(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  explicit Value(Object o)
      : kind_(Kind::kObject), obj_(std::make_shared<Object>(std::move(o))) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw hetsched::obs::json::TypeError on mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;  // held by value: no separate block per array
  std::shared_ptr<Object> obj_;
};

/// Thrown on malformed input (with byte offset) or accessor misuse; the
/// encoder throws TypeError for a value JSON cannot carry.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};
class TypeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- canonical emission --------------------------------------------------

/// `s` escaped and double-quoted. Escapes `"` `\` and control characters
/// (\n \t \r named, the rest \u00XX); everything else verbatim.
std::string json_quote(const std::string& s);

/// Shortest decimal form that round-trips to exactly `v` via
/// std::to_chars — the canonical number encoding. Throws TypeError on a
/// non-finite value: JSON cannot carry it, so callers map it out
/// beforehand (json_number_or_null, or an error answer).
std::string json_number(double v);

/// json_number(v), or `null` for a non-finite value — for scrape paths,
/// where a pathological gauge must not corrupt the document.
std::string json_number_or_null(double v);

/// Integer form without exponent.
std::string json_int(std::int64_t v);

/// `fp` as "0x" and 16 lowercase hex digits, unquoted — the rendering of
/// every model fingerprint.
std::string hex_fingerprint(std::uint64_t fp);

// --- parsing -------------------------------------------------------------

/// Parses exactly one JSON document; trailing non-whitespace is an error.
Value parse(const std::string& text);

/// Convenience: parse the whole contents of a file. Throws ParseError
/// if the file cannot be read.
Value parse_file(const std::string& path);

}  // namespace hetsched::obs::json
