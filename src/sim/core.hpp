// In-order core timing model with an MLP-limited outstanding-miss
// window.
//
// The model separates three latency regimes:
//   - L1 hits: folded into the workload's base CPI (modern pipelines
//     fully hide them);
//   - L2 hits: short, mostly overlapped unless the access is
//     chain-dependent;
//   - L2 misses (LLC or DRAM): tracked in a small window of outstanding
//     completions. Independent misses overlap up to min(machine MSHRs,
//     workload MLP); chain-dependent misses serialize. This is the
//     mechanism that makes irregular, latency-bound code the paper's
//     co-running "victims" while streaming code tolerates latency and
//     hogs bandwidth instead.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/addr.hpp"
#include "sim/hierarchy.hpp"
#include "sim/op.hpp"
#include "sim/stats.hpp"

namespace coperf::sim {

/// Synchronization callback surface the Machine provides to cores.
class SyncEnv {
 public:
  virtual ~SyncEnv() = default;
  /// Thread on `core` arrived at its application barrier at `now`.
  /// Returns the release cycle if this arrival released the barrier
  /// (the implementation unblocks all sibling cores itself), or nullopt
  /// if the core must block and wait for release_barrier().
  virtual std::optional<Cycle> barrier_arrive(unsigned core, Cycle now) = 0;
};

enum class CoreState : std::uint8_t {
  Idle,     ///< no thread bound
  Runnable, ///< executing trace ops
  Blocked,  ///< parked at a barrier
  Done,     ///< bound thread exhausted its trace
};

class Core {
 public:
  Core(unsigned id, MemorySystem* mem, SyncEnv* sync)
      : id_(id), mem_(mem), sync_(sync) {}

  /// Binds a thread (trace source) to this core, starting at `at`.
  void attach(OpSource* src, AppId app, Cycle at);

  /// Advances local time until >= `until` or the core blocks/finishes.
  void run_until(Cycle until);

  /// Called by the Machine when a sibling released the barrier this
  /// core is parked at.
  void release_barrier(Cycle release_time);

  CoreState state() const { return state_; }
  AppId app() const { return app_; }
  unsigned id() const { return id_; }
  Cycle local_cycle() const { return local_; }

  /// Cumulative counters with `cycles` filled in as elapsed local time.
  CoreStats snapshot() const;
  /// Per-region counter deltas accumulated so far (flushes current
  /// region). Sorted ascending by region id; flat storage keeps the
  /// per-region bookkeeping off the allocator on the hot path.
  const std::vector<std::pair<std::uint32_t, CoreStats>>& region_stats();

  /// Per-request latencies recorded at OpKind::Request boundaries
  /// (empty for batch workloads, which never emit request marks).
  const LatencyStats& latency() const { return latency_; }

 private:
  void exec(const Op& op);
  void do_compute(std::uint32_t uops);
  void do_mem(const Op& op, bool is_write);
  void do_region(std::uint32_t region);
  void do_request(std::uint32_t count);
  void flush_region();
  void pending_add(Cycle start, Cycle end);
  /// Retires completed misses; stalls on MSHR or ROB pressure.
  void drain_window();

  static constexpr std::size_t kBufCap = 512;
  static constexpr std::uint32_t kMaxWindow = 16;
  static constexpr std::uint32_t kL2HitOverlapCost = 2;
  static constexpr std::uint32_t kIssueCost = 1;

  unsigned id_;
  MemorySystem* mem_;
  SyncEnv* sync_;

  OpSource* src_ = nullptr;
  AppId app_ = 0;
  CoreState state_ = CoreState::Idle;
  ThreadAttr attr_{};
  std::uint32_t window_ = 8;  ///< min(machine MSHR, thread MLP)

  Cycle local_ = 0;
  Cycle start_ = 0;
  bool ever_attached_ = false;
  double frac_cycles_ = 0.0;  ///< sub-cycle accumulator for fractional CPI

  std::array<Op, kBufCap> buf_{};
  /// Current op window: either a zero-copy view owned by the source or
  /// buf_.data() after a copying refill.
  const Op* ops_ = nullptr;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;

  /// In-flight misses in issue order (in-order retirement model).
  struct Miss {
    Cycle completion = 0;
    std::uint64_t instr_at_issue = 0;
  };
  std::array<Miss, kMaxWindow> window_ring_{};
  std::uint32_t ring_head_ = 0;  ///< oldest outstanding
  std::uint32_t ring_size_ = 0;
  std::uint32_t rob_ = 168;
  Cycle pending_watermark_ = 0;

  CoreStats stats_;
  LatencyStats latency_;
  /// End of the previous request (or the attach point): where the next
  /// request's latency measurement starts.
  Cycle last_request_mark_ = 0;
  std::uint32_t cur_region_ = 0;
  Cycle region_start_cycle_ = 0;
  CoreStats region_snapshot_;
  /// Flat (region id, accumulated stats) pairs, sorted by id.
  std::vector<std::pair<std::uint32_t, CoreStats>> region_stats_;
};

}  // namespace coperf::sim
