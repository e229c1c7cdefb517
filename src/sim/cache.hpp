// Set-associative write-back cache model with true-LRU replacement.
//
// Used for the private L1D/L2 and the shared (optionally inclusive) L3.
// Lookups operate on line numbers (Addr >> 6). The L3 uses a folded
// set-index hash so co-running applications (whose address spaces
// differ only in high bits) spread across all sets the way physical
// addresses do on real hardware.
//
// Hot-path layout: way state is stored SoA (tags / flags / LRU stamps
// in separate arrays) so the per-set way scan touches a handful of
// contiguous cache lines instead of striding through an AoS struct.
// A one-entry "known absent" memo lets the common access-miss -> fill
// and probe -> fill chains run with a single set scan: the second call
// skips the duplicate lookup and goes straight to victim selection.
// Per-application valid-line counters make occupancy_of() O(1) and let
// invalidate() reject lines of applications with no cached state
// without scanning the set -- the inclusive-L3 back-invalidation
// broadcast relies on this.
//
// All SoA arrays come from a bump Arena -- normally the owning
// MemorySystem's, so one Machine costs a couple of block allocations
// instead of ~130 vector round-trips per trial; standalone construction
// (tests, tools) falls back to a private arena. The access/probe/fill
// chain lives in this header: it is the simulator's innermost loop
// (~170M calls per cold Tiny matrix) and must inline into the
// hierarchy walk rather than bounce through a cross-TU call per level.
//
// Each set also carries a departure epoch, bumped whenever a valid
// line LEAVES the set (eviction or invalidation). "Set epoch
// unchanged since line was observed resident" is therefore an exact
// proof the line is still resident -- the hierarchy's prefetch
// request-combining queue uses this to skip provably redundant probe
// walks with bit-identical semantics.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/addr.hpp"
#include "sim/arena.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"

namespace coperf::sim {

/// Outcome of a demand access or a fill.
struct CacheResult {
  bool hit = false;
  bool was_prefetched = false;  ///< hit on a line brought in by a prefetcher
  bool evicted = false;         ///< fill displaced a valid line
  bool evicted_dirty = false;   ///< ...that needs a writeback
  Addr evicted_line = 0;
  /// Cores whose private caches MAY hold the evicted line (bit per
  /// core). Only meaningful when the cache tracks private copies (the
  /// inclusive L3); defaults to "every core" so untracked caches stay
  /// conservative.
  std::uint64_t evicted_private_mask = ~std::uint64_t{0};
};

class Cache {
 public:
  /// `hashed_index` selects the folded-XOR set mapping (use for the LLC).
  /// `track_private_copies` enables the per-line core mask consumed by
  /// the inclusive-L3 back-invalidation broadcast (LLC only).
  /// SoA storage comes from `arena`; the arena must outlive the cache.
  Cache(Arena& arena, std::string name, const CacheConfig& cfg,
        bool hashed_index = false, bool track_private_copies = false);

  /// Standalone construction (tests/tools): storage from a private arena.
  Cache(std::string name, const CacheConfig& cfg, bool hashed_index = false,
        bool track_private_copies = false);

  Cache(Cache&&) noexcept = default;
  Cache& operator=(Cache&&) noexcept = default;

  /// Demand lookup; updates LRU and statistics. Does NOT allocate on miss
  /// (the hierarchy calls fill() once the line arrives from below).
  CacheResult access(Addr line, bool is_write);

  /// Lookup without side effects (no LRU update, no stats).
  bool probe(Addr line) const;

  /// Installs `line`, evicting the LRU way if the set is full.
  /// `from_prefetch` marks the line for usefulness accounting.
  CacheResult fill(Addr line, bool dirty, bool from_prefetch);

  /// Marks an existing line dirty (store hit after fill). Returns
  /// whether the line was present so dirty-victim chains can fall
  /// through to the next level with a single scan per level.
  bool mark_dirty(Addr line);

  /// Removes `line` if present; returns {was_present, was_dirty}.
  /// O(1) when the owning application has no lines cached here or the
  /// presence filter proves the line absent -- the common case for the
  /// inclusive-L3 back-invalidation broadcast, so the filter checks are
  /// inlined at the call site and the set scan stays out of line.
  struct InvalidateResult {
    bool present = false;
    bool dirty = false;
  };
  InvalidateResult invalidate(Addr line) {
    if (app_lines_[app_of_line(line)] == 0 || definitely_absent(line))
      return {};
    return invalidate_slow(line);
  }

  /// Records that `core`'s private caches received a copy of the line
  /// most recently touched here (access hit, probe hit, or fill). The
  /// hierarchy calls this right after the L3 interaction that precedes
  /// a private fill, so the matching eviction later broadcasts
  /// invalidations only to cores that ever pulled the line.
  void note_private(unsigned core) {
    if (track_private_) private_mask_[last_touch_] |= std::uint64_t{1} << core;
  }

  /// Departure epoch of `line`'s set: bumped whenever a valid line
  /// leaves the set. An unchanged epoch since `line` was observed
  /// resident proves the line is still resident (nothing departed, so
  /// nothing displaced it) -- the request-combining queue's exactness
  /// argument.
  std::uint32_t set_epoch_of(Addr line) const {
    return set_epoch_[set_index(line)];
  }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  const std::string& name() const { return name_; }
  std::uint64_t num_sets() const { return num_sets_; }
  std::uint32_t assoc() const { return assoc_; }
  std::uint64_t size_bytes() const { return cfg_.size_bytes; }
  std::uint32_t latency() const { return cfg_.latency_cycles; }

  /// Number of currently valid lines (maintained counter, O(1)).
  std::uint64_t occupancy() const { return valid_lines_; }
  /// Valid lines belonging to a given application (O(1) counter).
  std::uint64_t occupancy_of(AppId app) const { return app_lines_[app]; }

  std::uint64_t set_index(Addr line) const;

 private:
  // flags_ bit layout.
  static constexpr std::uint8_t kValid = 1;
  static constexpr std::uint8_t kDirty = 2;
  static constexpr std::uint8_t kPrefetched = 4;
  static constexpr std::uint32_t kNoWay = ~0u;

  static AppId app_of_line(Addr line) {
    return app_of(line << kLineBytesLog2);
  }

  std::uint32_t find_way(std::uint64_t set, std::uint64_t base,
                         Addr line) const;

  std::uint32_t pick_victim(std::uint64_t base) const;

  CacheResult install(std::uint64_t set, std::uint32_t way, Addr line,
                      bool dirty, bool from_prefetch);

  InvalidateResult invalidate_slow(Addr line);

  /// Sizes and carves every SoA array out of `arena` (shared ctor body).
  void init_storage(Arena& arena);

  /// Counting presence filter: bucket == 0 proves the line is absent
  /// (counting, so removals keep it exact -- no false negatives ever).
  std::uint64_t presence_bucket(Addr line) const {
    return (line * 0x9E3779B97F4A7C15ull) >> presence_shift_;
  }
  bool definitely_absent(Addr line) const {
    return presence_[presence_bucket(line)] == 0;
  }
  void presence_add(Addr line) {
    std::uint8_t& c = presence_[presence_bucket(line)];
    if (c != kPresenceSaturated) ++c;
  }
  void presence_remove(Addr line) {
    std::uint8_t& c = presence_[presence_bucket(line)];
    if (c != kPresenceSaturated) --c;  // saturated buckets stay pessimistic
  }

  std::string name_;
  CacheConfig cfg_;
  bool hashed_index_;
  std::uint64_t num_sets_;
  std::uint32_t assoc_;
  std::uint64_t sets_log2_;
  std::uint64_t lru_clock_ = 0;

  /// Standalone-constructor storage; null when an external arena (the
  /// MemorySystem's) backs the SoA arrays. Heap-held so Cache stays
  /// movable with stable interior pointers.
  std::unique_ptr<Arena> own_arena_;

  // SoA way state, row-major by set (index = set * assoc_ + way).
  // Raw arena arrays: sized once in the constructor, never resized.
  Addr* tags_ = nullptr;
  std::uint64_t* lru_ = nullptr;
  std::uint8_t* flags_ = nullptr;
  /// Per-line "cores that may hold a private copy" (tracking caches
  /// only). Sticky until the line leaves this cache.
  bool track_private_ = false;
  std::uint64_t* private_mask_ = nullptr;
  /// Way index of the line most recently hit/probed/installed; the
  /// anchor for note_private().
  mutable std::uint64_t last_touch_ = 0;
  /// Per-set most-recently-touched way (global line index): checked
  /// first by find_way, which short-circuits the way scan for the
  /// repeat-touch patterns that dominate demand hits and the stride
  /// prefetchers' redundant-request probes.
  std::uint32_t* mru_idx_ = nullptr;
  /// Per-set departure counter (see set_epoch_of).
  std::uint32_t* set_epoch_ = nullptr;

  /// Exact valid-line counters (total and per application).
  std::uint64_t valid_lines_ = 0;
  std::array<std::uint64_t, 256> app_lines_{};

  static constexpr std::uint8_t kPresenceSaturated = 0xFF;
  /// Counting filter over resident line numbers; sized ~4x the line
  /// capacity so a cold lookup is rejected without a set scan. Byte
  /// counters keep the filter small enough to live in host caches; a
  /// saturated bucket stays pessimistic forever (still exact).
  std::uint8_t* presence_ = nullptr;
  unsigned presence_shift_ = 64;

  /// One-entry negative lookup memo: when valid, `memo_line_` is known
  /// to be ABSENT (set by a missing access/probe/mark_dirty, consumed by
  /// the fill that installs it). Removals keep the invariant; only an
  /// install of the memoized line clears it.
  mutable Addr memo_line_ = 0;
  mutable bool memo_valid_ = false;

  CacheStats stats_;
};

}  // namespace coperf::sim
