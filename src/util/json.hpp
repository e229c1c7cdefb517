// JSON text: the one string escaper, double formatter, reader and
// writer behind every document the repo writes or reads. The snapshot
// benches build one Value and write() it, so their --json, --csv and
// BENCH_<name>.json share one layout. The metrics snapshot, Chrome
// traces and report::to_json keep their own hand-written layouts with
// quote()/number() leaves: the run cache stores report JSON on disk and
// CI greps the metrics snapshot line by line, so their bytes stay put.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace coperf::json {

/// `s` as a JSON string literal, quotes included. Escapes `"`, `\`,
/// `\n`, `\t` and `\r` by name and every other byte below 0x20 as
/// `\u00xx`; all other bytes pass through unchanged.
std::string quote(std::string_view s);

/// `v` printed with `%.17g`: 17 significant digits round-trip any
/// double exactly through strtod. Non-finite values print as `0`, so
/// the document stays valid JSON whatever happens upstream.
std::string number(double v);

/// A parsed JSON value. Object fields keep document order, and numbers
/// keep their raw text so 64-bit counters reload exactly. The typed
/// accessors throw std::runtime_error when the value has another kind.
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool flag = false;  ///< Bool
  std::string text;   ///< Number: raw token; String: decoded value
  std::vector<Value> items;                           ///< Array
  std::vector<std::pair<std::string, Value>> fields;  ///< Object

  /// The first field named `key`; throws when there is none.
  const Value& at(std::string_view key) const;
  bool has(std::string_view key) const;

  bool boolean() const;
  /// Plain digit tokens that fit in 64 bits only: a sign, fraction,
  /// exponent or overflow throws.
  std::uint64_t u64() const;
  double num() const;
  const std::string& str() const;
  const std::vector<Value>& arr() const;
};

/// Leaf and container builders for documents assembled in code.
/// real() prints through number(); integer() is exact to 2^64 - 1.
Value real(double v);
Value integer(std::uint64_t v);
Value str(std::string_view s);
Value boolean(bool b);
Value object(std::vector<std::pair<std::string, Value>> fields = {});
Value array(std::vector<Value> items = {});

/// `v` as a newline-terminated document: two-space indent, and an
/// object or array whose members are all scalars (or none) on one line.
/// Strings go through quote() and numbers print their text, so
/// write(parse(t)) == t for any `t` in this layout.
std::string write(const Value& v);

/// Parses one complete RFC 8259 document. Strict: trailing bytes, raw
/// control characters in strings, unknown escapes, `\u` escapes without
/// four hex digits or above 0x7F, and malformed numbers all throw
/// std::runtime_error naming the byte offset.
Value parse(std::string_view text);

}  // namespace coperf::json
