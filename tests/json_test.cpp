// util/json: the one escaper, double formatter, strict reader and
// writer every snapshot, trace and report goes through. quote() escapes
// every control byte, number() round-trips doubles exactly and matches
// the 17-digit stream format the documents always used, parse()
// rejects anything outside RFC 8259 while keeping u64 counters exact,
// and write() renders a Value in the bench-snapshot layout that parse()
// reads back unchanged.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace coperf::json {
namespace {

TEST(JsonQuote, EscapesEveryControlByte) {
  for (int b = 0; b < 0x20; ++b) {
    const std::string in(1, static_cast<char>(b));
    std::string want;
    switch (b) {
      case '\n': want = "\\n"; break;
      case '\t': want = "\\t"; break;
      case '\r': want = "\\r"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", b);
        want = buf;
      }
    }
    EXPECT_EQ(quote(in), "\"" + want + "\"") << "byte " << b;
    EXPECT_EQ(parse(quote(in)).str(), in) << "byte " << b;
  }
  EXPECT_EQ(quote("\""), "\"\\\"\"");
  EXPECT_EQ(quote("\\"), "\"\\\\\"");
  EXPECT_EQ(quote(""), "\"\"");
}

TEST(JsonQuote, PassesOtherBytesThrough) {
  // DEL and UTF-8 bytes are not control characters in JSON.
  const std::string in = "a/b\x7f\xc3\xa9 z";
  EXPECT_EQ(quote(in), "\"" + in + "\"");
  EXPECT_EQ(parse(quote(in)).str(), in);
}

TEST(JsonNumber, RoundTripsSeventeenDigitsExactly) {
  std::vector<double> values = {0.0,
                                -0.0,
                                0.1,
                                1.0 / 3.0,
                                2.5,
                                -1e-300,
                                6.02214076e23,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min()};
  util::SplitMix64 rng{42};
  while (values.size() < 2000) {
    const std::uint64_t bits = rng.next();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) values.push_back(v);
  }
  for (const double v : values) {
    const std::string text = number(v);
    const double back = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << text;
    // Byte-identical to the setprecision(17) stream format.
    std::ostringstream os;
    os << std::setprecision(17) << v;
    EXPECT_EQ(text, os.str());
  }
}

TEST(JsonNumber, NonFiniteBecomesZero) {
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "0");
}

TEST(JsonParse, ReadsDocumentsInOrder) {
  const Value v = parse(
      " {\"b\": [1, -2.5e3, true, false, null], \"a\": {\"s\": "
      "\"x\\u0041\\/\\b\\f\"}, \"b\": 7}\r\n");
  ASSERT_EQ(v.kind, Value::Kind::Object);
  ASSERT_EQ(v.fields.size(), 3u);
  EXPECT_EQ(v.fields[0].first, "b");  // document order, not sorted
  EXPECT_EQ(v.fields[1].first, "a");
  const auto& arr = v.at("b").arr();  // first of the duplicate keys
  ASSERT_EQ(arr.size(), 5u);
  EXPECT_EQ(arr[0].u64(), 1u);
  EXPECT_DOUBLE_EQ(arr[1].num(), -2500.0);
  EXPECT_EQ(arr[1].text, "-2.5e3");
  EXPECT_TRUE(arr[2].boolean());
  EXPECT_FALSE(arr[3].boolean());
  EXPECT_EQ(arr[4].kind, Value::Kind::Null);
  EXPECT_EQ(v.at("a").at("s").str(), "xA/\b\f");
  EXPECT_TRUE(v.has("a"));
  EXPECT_FALSE(v.has("c"));
  EXPECT_THROW(v.at("c"), std::runtime_error);
  EXPECT_THROW(v.at("a").str(), std::runtime_error);
  EXPECT_THROW(arr[2].num(), std::runtime_error);
  EXPECT_THROW(arr[0].at("x"), std::runtime_error);
}

TEST(JsonParse, KeepsRawNumberTextForU64Counters) {
  const Value v = parse("[18446744073709551615, 0, 9007199254740993]");
  EXPECT_EQ(v.items[0].text, "18446744073709551615");
  EXPECT_EQ(v.items[0].u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(v.items[1].u64(), 0u);
  // 2^53 + 1: a double round trip would lose the last bit.
  EXPECT_EQ(v.items[2].u64(), 9007199254740993ull);
}

TEST(JsonParse, U64AcceptsOnlyPlainDigitsThatFit) {
  for (const char* bad :
       {"-1", "-0", "1.5", "1e3", "1E0", "18446744073709551616",
        "99999999999999999999"}) {
    const Value v = parse(bad);
    EXPECT_THROW(v.u64(), std::runtime_error) << bad;
  }
}

TEST(JsonParse, RejectsMalformedDocuments) {
  const char* const bad[] = {
      // trailing bytes
      "{} x", "1 2", "[1],", "\"a\"\"b\"",
      // truncated
      "", "   ", "{", "[1, 2", "{\"a\": ", "{\"a\"", "\"abc", "\"\\", "tru",
      "nul", "\"\\u00",
      // raw control characters in strings
      "\"a\nb\"", "\"a\tb\"", "\"\x01\"", "\"\x1f\"",
      // unknown escapes
      "\"\\x41\"", "\"\\U0041\"", "\"\\a\"", "\"\\'\"",
      // \u without four hex digits, or above ASCII
      "\"\\u12\"", "\"\\u00g1\"", "\"\\u+041\"", "\"\\u-041\"", "\"\\u00e9\"",
      "\"\\u0080\"", "\"\\uFFFF\"",
      // malformed numbers and literals
      "01", "1.", ".5", "-", "+1", "1e", "1e+", "--1", "0x10", "NaN",
      "Infinity", "True", "nulll",
      // structure
      "{1: 2}", "{\"a\" 1}", "{\"a\": 1,}", "[1,]", "[1 2]", "{,}", "]",
      // whitespace JSON does not allow
      "\v1", "\f[]"};
  for (const char* doc : bad)
    EXPECT_THROW(parse(doc), std::runtime_error) << "accepted: " << doc;
}

TEST(JsonParse, BoundsNestingDepth) {
  EXPECT_NO_THROW(parse(std::string(200, '[') + std::string(200, ']')));
  EXPECT_THROW(parse(std::string(100'000, '[')), std::runtime_error);
}

/// Field-by-field equality: kind, flag, raw text, keys in order and
/// every member, recursively.
void expect_same(const Value& a, const Value& b, const std::string& path) {
  ASSERT_EQ(a.kind, b.kind) << path;
  EXPECT_EQ(a.flag, b.flag) << path;
  EXPECT_EQ(a.text, b.text) << path;
  ASSERT_EQ(a.items.size(), b.items.size()) << path;
  for (std::size_t i = 0; i < a.items.size(); ++i)
    expect_same(a.items[i], b.items[i], path + "[" + std::to_string(i) + "]");
  ASSERT_EQ(a.fields.size(), b.fields.size()) << path;
  for (std::size_t i = 0; i < a.fields.size(); ++i) {
    EXPECT_EQ(a.fields[i].first, b.fields[i].first) << path;
    expect_same(a.fields[i].second, b.fields[i].second,
                path + "/" + a.fields[i].first);
  }
}

TEST(JsonWrite, EscapesKeysAndValues) {
  const std::string nasty = std::string{"q\"b\\s\n\x01\x1f"} + '\0' + "z";
  const Value v = object({{nasty, str(nasty)}});
  const std::string text = write(v);
  EXPECT_EQ(text, "{" + quote(nasty) + ": " + quote(nasty) + "}\n");
  EXPECT_EQ(text,
            "{\"q\\\"b\\\\s\\n\\u0001\\u001f\\u0000z\": "
            "\"q\\\"b\\\\s\\n\\u0001\\u001f\\u0000z\"}\n");
  const Value back = parse(text);
  EXPECT_EQ(back.fields.at(0).first, nasty);
  EXPECT_EQ(back.at(nasty).str(), nasty);
}

TEST(JsonWrite, NumbersAreExact) {
  const double third = 1.0 / 3.0;
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const std::string text =
      write(array({real(third), real(0.1), real(2.0), real(-1e-300),
                   integer(max), integer(0), real(std::nan(""))}));
  EXPECT_EQ(text,
            "[0.33333333333333331, 0.10000000000000001, 2, "
            "-1e-300, 18446744073709551615, 0, 0]\n");
  const Value back = parse(text);
  EXPECT_EQ(back.items[0].num(), third);
  EXPECT_EQ(back.items[4].u64(), max);
}

TEST(JsonWrite, BoolsAndNull) {
  EXPECT_EQ(write(array({boolean(true), boolean(false), Value{}})),
            "[true, false, null]\n");
  EXPECT_TRUE(parse(write(boolean(true))).boolean());
}

TEST(JsonWrite, ScalarContainersOnOneLineNestedOnesIndented) {
  EXPECT_EQ(write(object()), "{}\n");
  EXPECT_EQ(write(array()), "[]\n");
  EXPECT_EQ(write(object({{"a", integer(1)}, {"b", str("x")}})),
            "{\"a\": 1, \"b\": \"x\"}\n");
  // A member that is a container, even an empty one, puts its parent
  // on indented lines.
  EXPECT_EQ(write(object({{"rows", array()}})), "{\n  \"rows\": []\n}\n");
  const Value doc = object(
      {{"config", object({{"n", integer(2)}})},
       {"rows", array({object({{"k", real(0.5)}}),
                       object({{"k", real(1.5)},
                               {"sub", array({integer(1), integer(2)})}})})}});
  EXPECT_EQ(write(doc),
            "{\n"
            "  \"config\": {\"n\": 2},\n"
            "  \"rows\": [\n"
            "    {\"k\": 0.5},\n"
            "    {\n"
            "      \"k\": 1.5,\n"
            "      \"sub\": [1, 2]\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWrite, RoundTripsThroughParse) {
  const Value doc = object(
      {{"name", str("a \"b\"\tc")},
       {"n", integer(std::numeric_limits<std::uint64_t>::max())},
       {"x", real(6.02214076e23)},
       {"ok", boolean(false)},
       {"none", Value{}},
       {"rows", array({object({{"p", str("x,y")}, {"v", real(-0.25)}}),
                       array({array(), object()})})}});
  expect_same(parse(write(doc)), doc, "");

  // A document already in the writer's layout comes back byte for byte,
  // including number tokens write() would not produce itself.
  const std::string text =
      "{\n"
      "  \"a\": {\"b\": 1e3, \"c\": -0, \"d\": \"\\u0007\"},\n"
      "  \"e\": [\n"
      "    [true, null],\n"
      "    {}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(write(parse(text)), text);
}

}  // namespace
}  // namespace coperf::json
