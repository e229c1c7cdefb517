// Machine: assembles cores + MemorySystem and drives the
// relaxed-synchronization (quantum) event loop.
//
// Reproduces the paper's experiment setup (Fig. 1): each application is
// bound to an exclusive set of physical cores; the only shared
// resources are the LLC and the memory subsystem. Background
// applications restart indefinitely until every foreground application
// finishes (Section V), exactly like the paper's co-run harness.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/core.hpp"
#include "sim/hierarchy.hpp"
#include "sim/op.hpp"
#include "sim/stats.hpp"

namespace coperf::sim {

/// One application bound onto the machine: one OpSource per thread,
/// each pinned to the corresponding core.
struct AppBinding {
  AppId id = 0;
  std::vector<unsigned> cores;
  std::vector<OpSource*> sources;
  /// Re-arms all sources for a fresh run (background apps only).
  std::function<void()> restart;
  bool background = false;
};

/// Cumulative memory-traffic snapshot taken every sample window
/// (the Intel PCM `pcm-memory` analogue). One slot per bound app, so
/// N-way co-run groups get per-member bandwidth like pairs do.
struct BandwidthSample {
  Cycle cycle = 0;
  std::uint64_t total_bytes = 0;
  std::vector<std::uint64_t> app_bytes;  // indexed by binding order
};

/// Result of Machine::run().
struct RunOutcome {
  Cycle finish_cycle = 0;              ///< when the last foreground thread retired
  std::vector<Cycle> app_finish;       ///< per-binding finish (bg: last restart boundary)
  std::vector<std::uint64_t> bg_runs;  ///< completed background iterations per binding
  bool hit_cycle_limit = false;
};

class Machine final : public SyncEnv {
 public:
  explicit Machine(const MachineConfig& cfg);

  /// Registers an application; must be called before run().
  /// Throws if core assignments overlap or exceed the machine.
  void add_app(AppBinding binding);

  /// Runs until every foreground application finishes.
  RunOutcome run();

  // SyncEnv
  std::optional<Cycle> barrier_arrive(unsigned core, Cycle now) override;

  MemorySystem& mem() { return mem_; }
  const MemorySystem& mem() const { return mem_; }
  Core& core(unsigned i) { return cores_[i]; }
  const MachineConfig& config() const { return cfg_; }
  Cycle global_cycle() const { return global_; }

  std::size_t num_apps() const { return apps_.size(); }
  const AppBinding& app(std::size_t i) const { return apps_[i]; }

  /// Aggregated counters over all cores of binding `i`.
  CoreStats app_stats(std::size_t i) const;

  /// Per-region aggregated counters over all cores of binding `i`.
  std::vector<std::pair<std::uint32_t, CoreStats>> app_region_stats(std::size_t i);

  /// Merged per-request latency distribution over all cores of binding
  /// `i` (empty for batch workloads).
  LatencyStats app_latency(std::size_t i) const;

  const std::vector<BandwidthSample>& bandwidth_timeline() const { return samples_; }

  /// PCM-style sampling window (cycles between samples).
  void set_sample_window(Cycle w) { sample_window_ = w; }
  /// Safety limit; run() aborts with hit_cycle_limit when exceeded.
  void set_cycle_limit(Cycle c) { cycle_limit_ = c; }

  /// Cost of one barrier episode for a `parties`-thread group: an
  /// OpenMP-style busy-wait tree release (kmp_hyper_barrier) costs on
  /// the order of a microsecond and grows with the fan-out. This is
  /// negligible for workloads that synchronize per iteration (graph
  /// supersteps) but dominates ones that synchronize every minibatch
  /// (ATIS) -- exactly the paper's Section IV-A finding.
  static Cycle barrier_overhead(std::uint32_t parties) {
    return parties <= 1 ? 0 : 400 + 250ull * (parties - 1);
  }

 private:
  struct BarrierGroup {
    std::uint32_t parties = 0;
    std::uint32_t arrived = 0;
    Cycle max_arrival = 0;
    std::vector<unsigned> waiting;
  };

  void step_quantum();
  void sample_bandwidth();
  bool foreground_done() const;
  void handle_background_restarts();
  void check_progress();
  /// Recomputes `active_cores_` = cores that are Runnable or Blocked.
  void rebuild_active_cores();

  MachineConfig cfg_;
  MemorySystem mem_;
  std::vector<Core> cores_;
  std::vector<AppBinding> apps_;
  std::vector<int> core_to_app_;  // -1 == unbound
  std::vector<BarrierGroup> barriers_;
  /// Cores worth visiting each quantum (not Idle, not Done), ascending.
  /// Blocked cores stay listed: a sibling can release them mid-quantum.
  std::vector<unsigned> active_cores_;

  Cycle global_ = 0;
  Cycle sample_window_ = 100'000;
  Cycle next_sample_ = 0;
  Cycle cycle_limit_ = 50'000'000'000ull;
  std::vector<BandwidthSample> samples_;
  std::vector<std::uint64_t> bg_runs_;
  std::vector<Cycle> app_finish_;
  std::uint64_t stalled_quanta_ = 0;
};

}  // namespace coperf::sim
