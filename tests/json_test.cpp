// util/json: the one escaper, double formatter and strict reader every
// manifest, snapshot, trace and report goes through. quote() escapes
// every control byte, number() round-trips doubles exactly and matches
// the 17-digit stream format the documents always used, and parse()
// rejects anything outside RFC 8259 while keeping u64 counters exact.
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

}  // namespace
}  // namespace coperf::json
