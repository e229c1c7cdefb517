// Hardware-event counters gathered by the simulator.
//
// These are the raw events from which every paper metric is derived:
// CPI, LLC MPKI, L2_PCP (fraction of cycles with an L2 miss pending)
// and LL (average shared-resource load latency), per Section VI-A.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/quantile.hpp"

namespace coperf::sim {

/// Counters for one cache level (kept per cache instance).
struct CacheStats {
  std::uint64_t demand_hits = 0;
  std::uint64_t demand_misses = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t prefetch_fills = 0;
  std::uint64_t prefetch_useful = 0;  ///< prefetched lines later demand-hit
  std::uint64_t writebacks = 0;
  std::uint64_t back_invalidations = 0;  ///< inclusion victims forced out

  std::uint64_t demand_accesses() const { return demand_hits + demand_misses; }
  double miss_rate() const {
    const auto a = demand_accesses();
    return a == 0 ? 0.0 : static_cast<double>(demand_misses) / static_cast<double>(a);
  }
  CacheStats& operator+=(const CacheStats& o) {
    demand_hits += o.demand_hits;
    demand_misses += o.demand_misses;
    store_hits += o.store_hits;
    store_misses += o.store_misses;
    prefetch_fills += o.prefetch_fills;
    prefetch_useful += o.prefetch_useful;
    writebacks += o.writebacks;
    back_invalidations += o.back_invalidations;
    return *this;
  }
};

/// Per-core pipeline + memory-system counters.
struct CoreStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;  ///< compute uops + memory ops
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;

  std::uint64_t l1d_hits = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t l3_hits = 0;
  std::uint64_t l3_misses = 0;

  std::uint64_t bytes_from_mem = 0;   ///< demand+prefetch line fills
  std::uint64_t bytes_written_back = 0;

  std::uint64_t stall_cycles_mem = 0;     ///< cycles the pipeline was blocked on memory
  std::uint64_t pending_l2_cycles = 0;    ///< cycles with >=1 L2 miss outstanding
  std::uint64_t barrier_wait_cycles = 0;  ///< cycles parked at synchronization

  std::uint64_t prefetches_issued = 0;

  double cpi() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(cycles) / static_cast<double>(instructions);
  }
  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) / static_cast<double>(cycles);
  }
  /// LLC misses per kilo-instruction.
  double llc_mpki() const {
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(l3_misses) / static_cast<double>(instructions);
  }
  /// L2 misses per kilo-instruction.
  double l2_mpki() const {
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(l2_misses) / static_cast<double>(instructions);
  }
  /// L2 Pending Cycle Percent: fraction of cycles with an L2 miss in flight.
  double l2_pcp() const {
    return cycles == 0
               ? 0.0
               : static_cast<double>(pending_l2_cycles) / static_cast<double>(cycles);
  }
  /// The paper's LL metric (Section VI-A): CPI * L2_PCP / (L2 misses per
  /// instruction) -- an estimate of the average latency paid per L2 miss
  /// at the shared LLC/memory level.
  double ll() const {
    if (instructions == 0 || l2_misses == 0) return 0.0;
    const double l2_mpi =
        static_cast<double>(l2_misses) / static_cast<double>(instructions);
    return cpi() * l2_pcp() / l2_mpi;
  }

  CoreStats& operator+=(const CoreStats& o);
};

/// One CoreStats counter: its name in reports and its member.
struct CoreStatField {
  const char* name;
  std::uint64_t CoreStats::*member;
};

/// Every CoreStats counter, in declaration order: the one list that
/// merging, per-region accounting and the report JSON iterate.
inline constexpr std::array<CoreStatField, 16> kCoreStatFields{{
    {"cycles", &CoreStats::cycles},
    {"instructions", &CoreStats::instructions},
    {"loads", &CoreStats::loads},
    {"stores", &CoreStats::stores},
    {"l1d_hits", &CoreStats::l1d_hits},
    {"l1d_misses", &CoreStats::l1d_misses},
    {"l2_hits", &CoreStats::l2_hits},
    {"l2_misses", &CoreStats::l2_misses},
    {"l3_hits", &CoreStats::l3_hits},
    {"l3_misses", &CoreStats::l3_misses},
    {"bytes_from_mem", &CoreStats::bytes_from_mem},
    {"bytes_written_back", &CoreStats::bytes_written_back},
    {"stall_cycles_mem", &CoreStats::stall_cycles_mem},
    {"pending_l2_cycles", &CoreStats::pending_l2_cycles},
    {"barrier_wait_cycles", &CoreStats::barrier_wait_cycles},
    {"prefetches_issued", &CoreStats::prefetches_issued},
}};
static_assert(sizeof(CoreStats) ==
                  kCoreStatFields.size() * sizeof(std::uint64_t),
              "a CoreStats counter is missing from kCoreStatFields");

inline CoreStats& CoreStats::operator+=(const CoreStats& o) {
  for (const CoreStatField& f : kCoreStatFields) this->*f.member += o.*f.member;
  return *this;
}

/// Per-request latency distribution in simulated cycles, recorded at
/// OpKind::Request boundaries. Same 65-bucket log2 layout as
/// obs::Histogram (obs/quantile.hpp holds the shared math), but plain
/// integers: this is simulation state, deterministic and mergeable
/// across cores with operator+=. Batch workloads emit no request
/// marks, so their LatencyStats stay empty (count == 0).
struct LatencyStats {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  ///< total request cycles
  std::array<std::uint64_t, obs::kQuantileBuckets> buckets{};

  void record(std::uint64_t cycles) {
    buckets[obs::log_bucket(cycles)] += 1;
    count += 1;
    sum += cycles;
  }

  bool empty() const { return count == 0; }
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Interpolated q-quantile in cycles (0.0 when empty).
  double quantile(double q) const {
    return obs::bucket_quantile(buckets, count, q);
  }

  LatencyStats& operator+=(const LatencyStats& o) {
    count += o.count;
    sum += o.sum;
    for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] += o.buckets[b];
    return *this;
  }
  bool operator==(const LatencyStats&) const = default;
};

/// Finds or inserts the bucket for `region` in a flat (region id,
/// stats) vector kept sorted ascending by id -- the storage both
/// Core's per-region accounting and Machine's cross-core merge use.
inline CoreStats& region_bucket(
    std::vector<std::pair<std::uint32_t, CoreStats>>& v,
    std::uint32_t region) {
  auto it = std::lower_bound(
      v.begin(), v.end(), region,
      [](const auto& entry, std::uint32_t id) { return entry.first < id; });
  if (it == v.end() || it->first != region)
    it = v.insert(it, {region, CoreStats{}});
  return it->second;
}

/// Memory-channel counters (shared resource).
struct MemoryStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t queue_delay_cycles = 0;  ///< total cycles requests waited for the channel
  std::uint64_t requests = 0;

  std::uint64_t total_bytes() const { return bytes_read + bytes_written; }
};

}  // namespace coperf::sim
