// Small deterministic RNG utilities. Every workload model is seeded
// explicitly so whole experiments are reproducible bit-for-bit; the
// paper's "three repeated runs" become three seeds.
#pragma once

#include <cstdint>

namespace coperf::util {

/// SplitMix64 -- tiny, fast, and statistically solid for simulation use.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Moves the state forward by `draws` calls of next() in O(1): each
  /// draw adds the same constant, so a chunk of one stream can start
  /// its own generator at any draw.
  constexpr void advance(std::uint64_t draws) { state_ += draws * kGamma; }

  /// Uniform in [0, bound) without modulo bias worth caring about here.
  constexpr std::uint64_t below(std::uint64_t bound) {
    return bound == 0 ? 0 : next() % bound;
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Derives an independent stream (for per-thread RNGs).
  constexpr SplitMix64 split(std::uint64_t salt) const {
    SplitMix64 s{state_ ^ (salt * 0xD2B74407B1CE6E93ull + 0x9E3779B97F4A7C15ull)};
    (void)s.next();
    return s;
  }

 private:
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;

  std::uint64_t state_;
};

/// Hash two 64-bit values into one seed (stable across platforms).
constexpr std::uint64_t seed_combine(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull + b;
  x ^= x >> 32;
  x *= 0xD6E8FEB86659FD93ull;
  x ^= x >> 32;
  return x;
}

}  // namespace coperf::util
