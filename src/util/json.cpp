#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace coperf::json {

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- Value -----------------------------------------------------------

namespace {

[[noreturn]] void wrong_kind(const char* want) {
  throw std::runtime_error{std::string{"json: expected "} + want};
}

}  // namespace

const Value& Value::at(std::string_view key) const {
  if (kind != Kind::Object) wrong_kind("an object");
  for (const auto& [k, v] : fields)
    if (k == key) return v;
  throw std::runtime_error{"json: missing field '" + std::string{key} + "'"};
}

bool Value::has(std::string_view key) const {
  for (const auto& [k, v] : fields)
    if (k == key) return true;
  return false;
}

bool Value::boolean() const {
  if (kind != Kind::Bool) wrong_kind("a boolean");
  return flag;
}

std::uint64_t Value::u64() const {
  if (kind != Kind::Number) wrong_kind("a number");
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end)
    throw std::runtime_error{"json: '" + text +
                             "' is not an unsigned 64-bit integer"};
  return v;
}

double Value::num() const {
  if (kind != Kind::Number) wrong_kind("a number");
  return std::strtod(text.c_str(), nullptr);  // grammar checked by parse()
}

const std::string& Value::str() const {
  if (kind != Kind::String) wrong_kind("a string");
  return text;
}

const std::vector<Value>& Value::arr() const {
  if (kind != Kind::Array) wrong_kind("an array");
  return items;
}

// --- builders and writer ---------------------------------------------

namespace {

Value make(Value::Kind kind, std::string text = {}) {
  Value v;
  v.kind = kind;
  v.text = std::move(text);
  return v;
}

void write_to(std::string& out, const Value& v, std::size_t depth) {
  switch (v.kind) {
    case Value::Kind::Null: out += "null"; return;
    case Value::Kind::Bool: out += v.flag ? "true" : "false"; return;
    case Value::Kind::Number: out += v.text; return;
    case Value::Kind::String: out += quote(v.text); return;
    default: break;
  }
  const bool object = v.kind == Value::Kind::Object;
  const std::size_t n = object ? v.fields.size() : v.items.size();
  const auto member = [&](std::size_t i) -> const Value& {
    return object ? v.fields[i].second : v.items[i];
  };
  bool flat = true;  // every member a scalar: the container is one line
  for (std::size_t i = 0; i < n; ++i)
    flat = flat && member(i).kind != Value::Kind::Array &&
           member(i).kind != Value::Kind::Object;
  const std::string indent = flat ? "" : "\n" + std::string(2 * depth, ' ');
  out += object ? '{' : '[';
  for (std::size_t i = 0; i < n; ++i) {
    out += i == 0 ? "" : ",";
    out += flat ? (i == 0 ? "" : " ") : indent + "  ";
    if (object) out += quote(v.fields[i].first) + ": ";
    write_to(out, member(i), depth + 1);
  }
  out += indent;
  out += object ? '}' : ']';
}

}  // namespace

Value real(double v) { return make(Value::Kind::Number, number(v)); }
Value integer(std::uint64_t v) {
  return make(Value::Kind::Number, std::to_string(v));
}
Value str(std::string_view s) {
  return make(Value::Kind::String, std::string{s});
}
Value boolean(bool b) {
  Value v = make(Value::Kind::Bool);
  v.flag = b;
  return v;
}
Value object(std::vector<std::pair<std::string, Value>> fields) {
  Value v = make(Value::Kind::Object);
  v.fields = std::move(fields);
  return v;
}
Value array(std::vector<Value> items) {
  Value v = make(Value::Kind::Array);
  v.items = std::move(items);
  return v;
}

std::string write(const Value& v) {
  std::string out;
  write_to(out, v, 0);
  return out + "\n";
}

// --- parser ----------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Value document() {
    Value v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content after the top-level value");
    return v;
  }

 private:
  // Bounds recursion so a hostile document cannot exhaust the stack.
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"json: parse error at byte " +
                             std::to_string(pos_) + ": " + what};
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }
  bool is_digit() const {
    return pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9';
  }

  Value value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    const char c = peek();
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') return string_value();
    if (c == 't' || c == 'f' || c == 'n') return literal();
    if (c == '-' || (c >= '0' && c <= '9')) return number_value();
    fail("unexpected character");
  }

  Value object(int depth) {
    expect('{');
    Value v;
    v.kind = Value::Kind::Object;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("expected a string key");
      std::string key = string_value().text;
      expect(':');
      v.fields.emplace_back(std::move(key), value(depth + 1));
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Value array(int depth) {
    expect('[');
    Value v;
    v.kind = Value::Kind::Array;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value(depth + 1));
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Value string_value() {
    expect('"');
    Value v;
    v.kind = Value::Kind::String;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return v;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        v.text += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      switch (s_[pos_++]) {
        case '"': v.text += '"'; break;
        case '\\': v.text += '\\'; break;
        case '/': v.text += '/'; break;
        case 'n': v.text += '\n'; break;
        case 't': v.text += '\t'; break;
        case 'r': v.text += '\r'; break;
        case 'b': v.text += '\b'; break;
        case 'f': v.text += '\f'; break;
        case 'u': {
          unsigned code = 0;
          const char* first = s_.data() + pos_;
          const char* last = first + std::min<std::size_t>(4, s_.size() - pos_);
          const auto [ptr, ec] = std::from_chars(first, last, code, 16);
          if (ec != std::errc{} || ptr != first + 4)
            fail("\\u needs four hex digits");
          if (code > 0x7F) fail("non-ASCII \\u escape unsupported");
          pos_ += 4;
          v.text += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value literal() {
    Value v;
    if (s_.substr(pos_, 4) == "true") {
      v.kind = Value::Kind::Bool;
      v.flag = true;
      pos_ += 4;
    } else if (s_.substr(pos_, 5) == "false") {
      v.kind = Value::Kind::Bool;
      pos_ += 5;
    } else if (s_.substr(pos_, 4) == "null") {
      pos_ += 4;
    } else {
      fail("unknown literal");
    }
    return v;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  Value number_value() {
    Value v;
    v.kind = Value::Kind::Number;
    const std::size_t start = pos_;
    if (s_[pos_] == '-') ++pos_;
    if (!is_digit()) fail("malformed number");
    if (s_[pos_] == '0') {
      ++pos_;
    } else {
      while (is_digit()) ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!is_digit()) fail("malformed number");
      while (is_digit()) ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!is_digit()) fail("malformed number");
      while (is_digit()) ++pos_;
    }
    v.text = std::string{s_.substr(start, pos_ - start)};
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser{text}.document(); }

}  // namespace coperf::json
