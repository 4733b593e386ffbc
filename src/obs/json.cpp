#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace hetsched::obs::json {

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse_document() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    std::ostringstream os;
    os << "JSON parse error at byte " << pos_ << ": " << why;
    throw ParseError(os.str());
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value();
      default:
        return parse_number();
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value(std::move(obj));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array(int depth) {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    arr.reserve(4);  // a config triple, or the start of a longer run
    for (;;) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value(std::move(arr));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run of plain bytes up to the next quote, escape or
      // control character in one append.
      std::size_t end = pos_;
      while (end < s_.size() && s_[end] != '"' && s_[end] != '\\' &&
             static_cast<unsigned char>(s_[end]) >= 0x20)
        ++end;
      out.append(s_, pos_, end - pos_);
      pos_ = end;
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("raw control character in string");
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          const char* hex = s_.data() + pos_;
          unsigned code = 0;
          const auto res = std::from_chars(hex, hex + 4, code, 16);
          if (res.ec != std::errc() || res.ptr != hex + 4)
            fail("bad \\u escape");
          if (code < 0x80)
            out += static_cast<char>(code);  // inverts json_quote
          else
            out.append(s_, pos_ - 2, 6);  // preserved verbatim
          pos_ += 4;
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t d0 = pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
      return pos_ > d0;
    };
    if (!digits()) fail("expected number");
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("digits required after decimal point");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) fail("digits required in exponent");
    }
    double v = 0.0;
    const auto res = std::from_chars(s_.data() + start, s_.data() + pos_, v);
    // Out of range leaves `v` unset: strtod then gives the ±inf or ±0
    // the literal rounds to, as it gave every number before.
    if (res.ec != std::errc() || res.ptr != s_.data() + pos_)
      v = std::strtod(s_.c_str() + start, nullptr);
    return Value(v);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(hex[(c >> 4) & 0xf]);
          out.push_back(hex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v))
    throw TypeError("non-finite value reached canonical JSON emission");
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  if (res.ec != std::errc())
    throw TypeError("double does not fit canonical JSON number buffer");
  return std::string(buf, res.ptr);
}

std::string json_number_or_null(double v) {
  return std::isfinite(v) ? json_number(v) : std::string("null");
}

std::string json_int(std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  if (res.ec != std::errc()) throw TypeError("int64 formatting cannot fail");
  return std::string(buf, res.ptr);
}

std::string hex_fingerprint(std::uint64_t fp) {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 60; shift >= 0; shift -= 4)
    s.push_back(digits[(fp >> shift) & 0xf]);
  return s;
}

bool Value::as_bool() const {
  if (!is_bool()) throw TypeError("JSON value is not a bool");
  return bool_;
}

double Value::as_number() const {
  if (!is_number()) throw TypeError("JSON value is not a number");
  return num_;
}

const std::string& Value::as_string() const {
  if (!is_string()) throw TypeError("JSON value is not a string");
  return str_;
}

const Array& Value::as_array() const {
  if (!is_array()) throw TypeError("JSON value is not an array");
  return arr_;
}

const Object& Value::as_object() const {
  if (!is_object()) throw TypeError("JSON value is not an object");
  return *obj_;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto it = obj_->find(key);
  return it == obj_->end() ? nullptr : &it->second;
}

Value parse(const std::string& text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

}  // namespace hetsched::obs::json
