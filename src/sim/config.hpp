// Machine configuration mirroring the paper's testbed (Section III-A):
// a Supermicro 8047R-TRF+ with an 8-core Intel Xeon E5-4650 (Sandy
// Bridge) at 2.7 GHz -- 32K private L1I/L1D, 256K private L2, 20 MB
// shared inclusive L3, 64 GB DRAM, ~28 GB/s practical memory bandwidth.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/addr.hpp"

namespace coperf::sim {

/// Geometry and latency of one cache level.
struct CacheConfig {
  std::uint64_t size_bytes = 0;
  std::uint32_t assoc = 8;
  std::uint32_t latency_cycles = 4;  ///< load-to-use latency on hit
  std::uint32_t line_bytes = kLineBytes;

  std::uint64_t num_sets() const { return size_bytes / (assoc * line_bytes); }
};

/// Which of the four Sandy Bridge hardware prefetchers are enabled.
/// Mirrors the per-core MSR 0x1A4 bit layout described in Section IV-C.
struct PrefetchMask {
  bool l2_stream = true;    ///< "L2 hardware prefetcher" (streamer)
  bool l2_adjacent = true;  ///< "L2 adjacent cache line prefetcher"
  bool l1_next_line = true; ///< "L1-data cache prefetcher" (DCU)
  bool l1_ip_stride = true; ///< "L1-data cache IP prefetcher"

  static constexpr PrefetchMask all_on() { return {true, true, true, true}; }
  static constexpr PrefetchMask all_off() { return {false, false, false, false}; }
  bool any() const { return l2_stream || l2_adjacent || l1_next_line || l1_ip_stride; }
  bool operator==(const PrefetchMask&) const = default;
};

/// Full machine description. `paper()` is the unscaled testbed;
/// `scaled(f)` shrinks the shared LLC by `f` so experiments with
/// proportionally shrunk workload footprints preserve the
/// footprint-to-LLC and demand-to-peak-bandwidth ratios that drive
/// every interference result.
struct MachineConfig {
  std::uint32_t num_cores = 8;
  double freq_ghz = 2.7;

  CacheConfig l1d{32 * 1024, 8, 4};
  CacheConfig l2{256 * 1024, 8, 12};
  CacheConfig l3{20ull * 1024 * 1024, 20, 38};
  bool l3_inclusive = true;

  double peak_bw_gbs = 28.0;            ///< practical system bandwidth (paper VI-B)
  /// Per-core sustainable DRAM bandwidth (demand + prefetch): one core
  /// cannot saturate the whole socket -- this is the MLP/queue limit
  /// that makes multi-threaded bandwidth CLIMB from 1 to 4 threads in
  /// Fig. 3 instead of starting saturated.
  double per_core_bw_gbs = 10.5;
  std::uint32_t dram_latency_cycles = 200;  ///< unloaded DRAM round trip

  std::uint32_t mshr_per_core = 10;     ///< max outstanding L1 misses (MLP cap)
  std::uint32_t store_buffer = 16;      ///< non-blocking store slots
  /// Reorder-buffer capacity: how many instructions may retire past an
  /// outstanding miss before the pipeline stalls. This is what turns
  /// co-run-inflated memory latency into victim slowdown -- without it
  /// a core could run arbitrarily far ahead of a slow load.
  std::uint32_t rob_instructions = 168;  // Sandy Bridge ROB

  /// Local-time quantum for the relaxed-synchronization event loop.
  std::uint32_t quantum_cycles = 250;

  PrefetchMask prefetch = PrefetchMask::all_on();

  /// L2-streamer aggressiveness (lines prefetched ahead per stream).
  std::uint32_t streamer_degree = 4;
  /// Misses on consecutive lines of a 4K page before a stream is trained.
  std::uint32_t streamer_train = 2;

  /// Workload/LLC scale denominator this config was built with (1 = native).
  std::uint32_t scale = 1;

  static MachineConfig paper() { return MachineConfig{}; }

  /// Shrinks the shared LLC by `factor` (and, for deep scaling, the
  /// private L2s by 2 so the inclusive LLC stays larger than the sum of
  /// the private caches). Workload inputs built through SizeClass
  /// shrink correspondingly, preserving the footprint-to-cache ratios
  /// that drive the paper's contention results.
  static MachineConfig scaled(std::uint32_t factor = 16) {
    if (factor == 0) throw std::invalid_argument{"scale factor must be >= 1"};
    MachineConfig c;
    c.l3.size_bytes /= factor;
    if (factor >= 16) c.l2.size_bytes /= 2;
    if (c.l3.size_bytes < c.l3.assoc * c.l3.line_bytes)
      throw std::invalid_argument{"scale factor too large for LLC geometry"};
    if (c.l3.size_bytes < std::uint64_t{c.num_cores} * c.l2.size_bytes)
      throw std::invalid_argument{
          "scaled LLC smaller than the sum of private L2s"};
    c.scale = factor;
    return c;
  }

  /// Bytes the DRAM channel can move per core cycle.
  double bytes_per_cycle() const { return peak_bw_gbs / freq_ghz; }

  /// Converts a cycle count to seconds at the configured frequency.
  double seconds(Cycle cycles) const {
    return static_cast<double>(cycles) / (freq_ghz * 1e9);
  }

  void validate() const {
    auto check_cache = [](const CacheConfig& c, const std::string& name) {
      if (c.size_bytes == 0 || c.assoc == 0 || c.line_bytes == 0)
        throw std::invalid_argument{name + ": zero-sized cache parameter"};
      const std::uint64_t sets = c.num_sets();
      if (sets == 0 || (sets & (sets - 1)) != 0)
        throw std::invalid_argument{name + ": set count must be a nonzero power of two"};
    };
    check_cache(l1d, "l1d");
    check_cache(l2, "l2");
    check_cache(l3, "l3");
    if (num_cores == 0 || num_cores > 64)
      throw std::invalid_argument{"num_cores out of range"};
    if (peak_bw_gbs <= 0 || freq_ghz <= 0)
      throw std::invalid_argument{"bandwidth/frequency must be positive"};
    if (quantum_cycles == 0 || mshr_per_core == 0)
      throw std::invalid_argument{"quantum/mshr must be positive"};
  }
};

}  // namespace coperf::sim
