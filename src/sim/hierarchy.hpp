// MemorySystem: the full cache/memory hierarchy shared by all cores.
//
// Private L1-D and L2 per core, one shared (optionally inclusive) L3,
// one DRAM channel, and one prefetcher bank per core. This is the
// paper's contention substrate: co-running applications meet here, in
// the LLC and on the memory bus, and nowhere else (Fig. 1).
//
// The demand walk and the prefetch drain live in this header: they are
// the innermost simulator loop (tens of millions of calls per co-run
// trial) and inline into Core::do_mem. The Cache lookups they call stay
// out of line in cache.cpp, one call per hierarchy level: inlining them
// here too measured about 17% slower (sim/cache.hpp).
// All cache SoA state is carved out of one bump arena owned here, so a
// trial's MemorySystem costs a couple of block allocations total.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/addr.hpp"
#include "sim/arena.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/memory.hpp"
#include "sim/prefetcher.hpp"

namespace coperf::sim {

/// Where a demand access was satisfied.
enum class HitLevel : std::uint8_t { L1 = 1, L2 = 2, L3 = 3, Mem = 4 };

struct AccessOutcome {
  HitLevel level = HitLevel::L1;
  std::uint32_t latency = 0;  ///< load-to-use cycles (0 for L1 hits: folded into base CPI)
  bool l2_miss = false;       ///< access went past the private L2
};

class MemorySystem {
 public:
  explicit MemorySystem(const MachineConfig& cfg);

  /// Demand load/store from `core` at local time `now`. Updates all
  /// cache state, trains prefetchers, issues their requests, and
  /// returns where the data came from and how long it took.
  /// `allocate == false` models set-conflicting / non-temporal traffic:
  /// the access still probes the hierarchy but a full miss goes to DRAM
  /// without displacing any cached line.
  AccessOutcome demand_access(unsigned core, Addr addr, std::uint16_t pc,
                              bool is_write, Cycle now, bool allocate = true) {
    AccessOutcome out;
    const Addr line = line_of(addr);
    scratch_.clear();

    Cache& l1 = l1_[core];
    const CacheResult r1 = l1.access(line, is_write);
    if (allocate) banks_[core].on_l1_access(addr, pc, !r1.hit, scratch_);
    if (r1.hit) {
      out.level = HitLevel::L1;
      out.latency = 0;
      run_prefetches(core, now);
      return out;
    }

    Cache& l2 = l2_[core];
    const CacheResult r2 = l2.access(line, /*is_write=*/false);
    if (r2.hit) {
      out.level = HitLevel::L2;
      out.latency = cfg_.l2.latency_cycles;
      fill_l1(core, line, is_write, false);
      run_prefetches(core, now);
      return out;
    }

    if (allocate) banks_[core].on_l2_miss(line, scratch_);
    out.l2_miss = true;

    const CacheResult r3 = l3_.access(line, /*is_write=*/false);
    if (r3.hit) {
      out.level = HitLevel::L3;
      out.latency = cfg_.l3.latency_cycles;
    } else {
      out.level = HitLevel::Mem;
      // L3 tag check precedes DRAM; the per-core bucket gates issue.
      const Cycle issued = core_gate(core, now + cfg_.l3.latency_cycles);
      const Cycle done = channel_.read(issued, kLineBytes, app_of(addr));
      out.latency = static_cast<std::uint32_t>(done - now);
      if (!allocate) return out;  // non-temporal: no displacement anywhere
      const CacheResult fill = l3_.fill(line, /*dirty=*/false, false);
      handle_l3_eviction(fill, now);
    }
    l3_.note_private(core);  // the line is about to enter this core's L1/L2
    fill_l2(core, line, false);
    fill_l1(core, line, is_write, false);
    run_prefetches(core, now);
    return out;
  }

  /// Number of prefetch lines brought in by the last demand_access call
  /// (for the issuing core's statistics).
  std::uint32_t last_prefetches() const { return last_prefetches_; }

  Cache& l1(unsigned core) { return l1_[core]; }
  Cache& l2(unsigned core) { return l2_[core]; }
  Cache& l3() { return l3_; }
  const Cache& l3() const { return l3_; }
  MemoryChannel& channel() { return channel_; }
  const MemoryChannel& channel() const { return channel_; }
  PrefetcherBank& prefetcher(unsigned core) { return banks_[core]; }

  const MachineConfig& config() const { return cfg_; }

 private:
  /// Gates a request through `core`'s private bandwidth bucket (a core
  /// cannot pull more than per_core_bw_gbs from the socket).
  Cycle core_gate(unsigned core, Cycle now) {
    double& nf = core_next_free_[core];
    const double start = std::max(static_cast<double>(now), nf);
    nf = start + core_cycles_per_line_;
    return static_cast<Cycle>(start);
  }
  /// Cycles until `core`'s bucket frees at `now`.
  Cycle core_backlog(unsigned core, Cycle now) const {
    const double nf = core_next_free_[core];
    return nf > static_cast<double>(now)
               ? static_cast<Cycle>(nf - static_cast<double>(now))
               : 0;
  }

  /// Brings `line` into the L3 (and handles inclusion back-invalidation
  /// plus dirty writebacks of evicted lines). Returns completion time.
  Cycle fetch_to_l3(unsigned core, Addr line, Cycle now, bool from_prefetch) {
    const Cycle issue = core_gate(core, now);
    const Cycle done =
        channel_.read(issue, kLineBytes, app_of(line << kLineBytesLog2));
    const CacheResult fill = l3_.fill(line, /*dirty=*/false, from_prefetch);
    handle_l3_eviction(fill, now);
    return done;
  }

  void fill_l2(unsigned core, Addr line, bool from_prefetch) {
    const CacheResult fill = l2_[core].fill(line, /*dirty=*/false, from_prefetch);
    if (fill.evicted && fill.evicted_dirty) {
      // Write the dirty L2 victim back into the (inclusive) L3; if the L3
      // already dropped it, the traffic went to memory at that point.
      // mark_dirty reports presence itself, so no probe double-walk.
      (void)l3_.mark_dirty(fill.evicted_line);
    }
  }

  void fill_l1(unsigned core, Addr line, bool dirty, bool from_prefetch) {
    const CacheResult fill = l1_[core].fill(line, dirty, from_prefetch);
    if (fill.evicted && fill.evicted_dirty) {
      if (!l2_[core].mark_dirty(fill.evicted_line))
        (void)l3_.mark_dirty(fill.evicted_line);
    }
  }

  void handle_l3_eviction(const CacheResult& r, Cycle now) {
    if (!r.evicted) return;
    bool dirty = r.evicted_dirty;
    const AppId app = app_of(r.evicted_line << kLineBytesLog2);
    if (cfg_.l3_inclusive) {
      // Inclusion victims: the line must leave every private cache too.
      // Instead of broadcasting to all 2*num_cores private caches, visit
      // only the cores the L3 recorded as ever pulling this line
      // (note_private). The mask is sticky-conservative: a listed core
      // may have evicted the line long ago, and invalidate() rejects
      // those with its O(1) presence filters.
      std::uint64_t m = r.evicted_private_mask;
      if (cfg_.num_cores < 64) m &= (std::uint64_t{1} << cfg_.num_cores) - 1;
      while (m != 0) {
        const auto c = static_cast<unsigned>(std::countr_zero(m));
        m &= m - 1;
        if (l1_[c].invalidate(r.evicted_line).dirty) dirty = true;
        if (l2_[c].invalidate(r.evicted_line).dirty) dirty = true;
      }
    }
    if (dirty) channel_.write(now, kLineBytes, app);
  }

  /// Inline guard: most demand accesses queue no prefetch requests, so
  /// the walk stays out of line and the empty case costs two stores.
  void run_prefetches(unsigned core, Cycle now) {
    last_prefetches_ = 0;
    if (!scratch_.empty()) run_prefetches_slow(core, now);
  }

  // --- Prefetch request-combining queue ------------------------------
  //
  // Trained prefetchers re-request lines they (or a sibling) already
  // brought in: a degree-4 streamer burst overlaps the previous burst
  // in 3 of 4 lines, so most requests used to re-walk the probe chain
  // just to discover the line is resident. The combining queue is a
  // small per-core ring of (line, level, set-departure-epoch) records
  // written whenever a prefetch walk leaves `line` resident at its
  // target level. A later duplicate request whose recorded epoch still
  // matches the target cache's set epoch is dropped WITHOUT probing.
  //
  // Exactness argument (goldens must stay bit-identical):
  //  - the skipped walk would have been `probe(line) -> hit -> continue`,
  //    which mutates no statistic, no LRU state, and no memo (a probe
  //    only records its negative memo on a MISS; mru/last_touch touches
  //    on private caches are never observed);
  //  - the epoch check is an exact residency proof: the epoch bumps on
  //    every departure from the set, so "epoch unchanged since observed
  //    resident" means nothing was displaced -- the line is still there;
  //  - both drop gates below are invariant across skipped requests
  //    (only fetch_to_l3 moves the core bucket or the channel), so
  //    skipping cannot shift which request a backlog break lands on;
  //  - `last_prefetches_` counts fills only; a skipped request would
  //    not have filled.

  struct CombineEntry {
    Addr line = ~Addr{0};
    std::uint32_t epoch = 0;
    PrefetchLevel level = PrefetchLevel::L2;
  };
  static constexpr unsigned kCombineWays = 8;

  void run_prefetches_slow(unsigned core, Cycle now) {
    // The probe -> fill chains below are effectively single set walks:
    // a missing probe leaves a "known absent" memo in the cache, and the
    // matching fill consumes it instead of re-running the lookup.
    Cache& l1 = l1_[core];
    Cache& l2 = l2_[core];
    CombineEntry* ring = combine_.data() + core * kCombineWays;
    // Demand priority: prefetch only into an idle core gate, and back
    // off entirely when the socket is congested. Both gates move only
    // when a prefetch reaches DRAM (fetch_to_l3), so they are hoisted
    // out of the per-request path and refreshed after each fetch.
    bool gates_open = core_backlog(core, now) <= kPrefetchDropCoreBacklog &&
                      channel_.backlog(now) <= kPrefetchDropBacklog;
    for (const PrefetchRequest& req : scratch_) {
      if (!gates_open) break;
      CombineEntry* known = nullptr;
      for (unsigned i = 0; i < kCombineWays; ++i) {
        if (ring[i].line == req.line && ring[i].level == req.level) {
          known = &ring[i];
          break;
        }
      }
      Cache& target = req.level == PrefetchLevel::L1 ? l1 : l2;
      if (known != nullptr && target.set_epoch_of(req.line) == known->epoch)
        continue;  // combined: provably still resident, the walk is a no-op
      if (req.level == PrefetchLevel::L1) {
        if (!l1.probe(req.line)) {
          if (!l2.probe(req.line)) {
            if (!l3_.probe(req.line)) {
              (void)fetch_to_l3(core, req.line, now, true);
              gates_open =
                  core_backlog(core, now) <= kPrefetchDropCoreBacklog &&
                  channel_.backlog(now) <= kPrefetchDropBacklog;
            }
            l3_.note_private(core);
            fill_l2(core, req.line, true);
          }
          fill_l1(core, req.line, /*dirty=*/false, true);
          ++last_prefetches_;
        }
      } else {
        if (!l2.probe(req.line)) {
          if (!l3_.probe(req.line)) {
            (void)fetch_to_l3(core, req.line, now, true);
            gates_open = core_backlog(core, now) <= kPrefetchDropCoreBacklog &&
                         channel_.backlog(now) <= kPrefetchDropBacklog;
          }
          l3_.note_private(core);
          fill_l2(core, req.line, true);
          ++last_prefetches_;
        }
      }
      // Either way the line is now resident at the target level: record
      // it so the next duplicate request combines instead of re-walking.
      const std::uint32_t epoch = target.set_epoch_of(req.line);
      if (known != nullptr) {
        known->epoch = epoch;
      } else {
        std::uint8_t& cur = combine_pos_[core];
        ring[cur] = CombineEntry{req.line, epoch, req.level};
        cur = static_cast<std::uint8_t>((cur + 1) & (kCombineWays - 1));
      }
    }
    scratch_.clear();
  }

  MachineConfig cfg_;
  /// Backs every cache's SoA arrays; declared before them so it
  /// outlives their pointers on destruction.
  Arena arena_;
  std::vector<Cache> l1_;
  std::vector<Cache> l2_;
  Cache l3_;
  MemoryChannel channel_;
  std::vector<double> core_next_free_;  ///< per-core bandwidth buckets
  double core_cycles_per_line_ = 0.0;
  std::vector<PrefetcherBank> banks_;
  std::vector<PrefetchRequest> scratch_;  // reused per access, allocation-free
  std::vector<CombineEntry> combine_;     // kCombineWays entries per core
  std::vector<std::uint8_t> combine_pos_;
  std::uint32_t last_prefetches_ = 0;

  /// Prefetches are dropped when the global channel backlog exceeds
  /// this many cycles (socket-level prefetch throttling).
  static constexpr Cycle kPrefetchDropBacklog = 700;
  /// ...and, more importantly, when the issuing core's own bandwidth
  /// gate is still busy: demand misses have priority, so prefetch can
  /// never queue ahead of them at the core (useless prefetches on
  /// irregular code would otherwise inflate every demand latency).
  static constexpr Cycle kPrefetchDropCoreBacklog = 300;
};

}  // namespace coperf::sim
