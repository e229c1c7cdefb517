// Small self-contained helpers of the benchmark: interpolated
// quantiles over raw samples, a 64-bit FNV-1a output digest, the run
// stamp every result record carries, and the metric ledger that is
// printed as one JSON object. Covered by tests/util_test.cpp.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// An interpolated quantile and the number of samples it was read from.
struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
};

/// Mid-distribution quantile: each distinct value v sits at the middle
/// of its probability mass, m(v) = P(X < v) + P(X = v) / 2, and q is
/// interpolated linearly between neighbouring m(v). With distinct
/// samples this is the Hazen rule (position n*q + 1/2); with ties, as
/// clock-quantized durations have, the result still moves with the
/// share of each value instead of sticking to one tick. Empty input
/// gives {0, 0}; q is clamped to [0, 1].
inline Quantile quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double n = static_cast<double>(samples.size());
  double prev_v = samples.front(), prev_m = -1.0;
  for (std::size_t i = 0; i < samples.size();) {
    std::size_t j = i;
    while (j < samples.size() && samples[j] == samples[i]) ++j;
    const double m = (static_cast<double>(i) + static_cast<double>(j - i) / 2.0) / n;
    if (q <= m) {
      if (prev_m < 0.0) return {samples[i], samples.size()};
      const double t = (q - prev_m) / (m - prev_m);
      return {prev_v + (samples[i] - prev_v) * t, samples.size()};
    }
    prev_v = samples[i];
    prev_m = m;
    i = j;
  }
  return {samples.back(), samples.size()};
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5).value;
}

/// 64-bit FNV-1a over a byte stream. Numbers are folded in by their
/// exact bit patterns, so two digests agree only on identical outputs.
class Digest {
 public:
  Digest& bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  Digest& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Digest& f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }
  Digest& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) out[15 - i] = kDigits[(h_ >> (4 * i)) & 0xf];
    return out;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Output stream buffer that digests every byte written through it, so
/// a large text rendering (an audit log) is hashed without being held.
class DigestBuf final : public std::streambuf {
 public:
  Digest& digest() { return d_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      const char ch = traits_type::to_char_type(c);
      d_.bytes(&ch, 1);
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    d_.bytes(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  Digest d_;
};

/// Shortest text that reads back as exactly `v` (JSON has no NaN/inf:
/// those print as null).
inline std::string num(double v) {
  if (!(v == v) || v > 1.7e308 || v < -1.7e308) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

inline std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Facts about the host, build and inputs that make a result comparable
/// with another: equal lanes and build type, or the numbers differ.
struct Stamp {
  unsigned nproc = 0;
  unsigned lanes = 0;
  std::string compiler;
  std::string build_type;
  std::string git_sha;
  long long seed = 0;
  unsigned input_set = 0;

  std::string json() const {
    return "{\"nproc\": " + std::to_string(nproc) +
           ", \"lanes\": " + std::to_string(lanes) +
           ", \"compiler\": " + quoted(compiler) +
           ", \"build_type\": " + quoted(build_type) +
           ", \"git_sha\": " + quoted(git_sha) +
           ", \"seed\": " + std::to_string(seed) +
           ", \"input_set\": " + std::to_string(input_set) + "}";
  }
};

/// The compiler that built this binary, e.g. "gcc 12.2.0".
inline std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

/// Maps any workload seed onto one of `sets` pinned input sets
/// (1-based): seed 1 -> 1, ..., seed sets -> sets, seed sets+1 -> 1.
inline unsigned input_set(long long seed, unsigned sets) {
  const long long m = ((seed - 1) % sets + sets) % sets;
  return static_cast<unsigned>(m) + 1;
}

/// Named metrics with units, printed in insertion-independent (sorted)
/// order as {"name": {"value": v, "unit": u}, ...}.
class Ledger {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    rows_[name] = {value, unit};
  }
  double get(const std::string& name) const { return rows_.at(name).value; }
  /// Adds the entries of `other` this ledger does not have yet.
  void merge_missing(const Ledger& other) {
    rows_.insert(other.rows_.begin(), other.rows_.end());
  }
  std::size_t size() const { return rows_.size(); }

  std::string json() const {
    std::string out = "{";
    for (const auto& [name, row] : rows_) {
      if (out.size() > 1) out += ", ";
      out += quoted(name) + ": {\"value\": " + num(row.value) +
             ", \"unit\": " + quoted(row.unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Row {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Row> rows_;
};

}  // namespace perfbench
