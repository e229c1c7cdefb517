// Solo and co-run execution harness -- the paper's experimental
// methodology (Section III / Fig. 1) as a library:
//   * applications pinned to exclusive cores (fg: 0..3, bg: 4..7),
//   * background application restarted indefinitely until the
//     foreground finishes,
//   * bandwidth sampled PCM-style throughout,
//   * repeated runs under distinct seeds, reported as the median
//     (SoloSpec/GroupSpec reps in harness/plan.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "perf/pcm.hpp"
#include "perf/profiler.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "wl/workload.hpp"

namespace coperf::harness {

struct RunOptions {
  sim::MachineConfig machine = sim::MachineConfig::scaled();
  wl::SizeClass size = wl::SizeClass::Small;
  unsigned threads = 4;     ///< foreground thread count
  unsigned bg_threads = 4;  ///< background thread count (co-run)
  std::uint64_t seed = 1;
  sim::Cycle sample_window = 200'000;  ///< PCM sampling period
  sim::Cycle cycle_limit = 50'000'000'000ull;
};

/// Measurements of one application from one run (solo or co-run).
///
/// Migration note (PR 9): `latency` is new -- the per-request latency
/// distribution in simulated cycles for serving workloads. Batch
/// workloads (everything outside the "serve" suite) never emit request
/// marks, so for them `latency` is empty (count == 0) and every
/// pre-existing field is bit-identical to before. Consumers that
/// aggregate RunResults should merge `latency` with operator+=; the
/// derived percentiles come from LatencyStats::quantile.
struct RunResult {
  std::string workload;
  unsigned threads = 0;
  sim::Cycle cycles = 0;   ///< wall-clock of the run (this app)
  double seconds = 0.0;
  /// Aggregated over the app's cores; the paper's metrics are its
  /// methods (stats.cpi(), l2_pcp(), llc_mpki(), ll(), ...).
  sim::CoreStats stats;
  double avg_bw_gbs = 0.0; ///< this app's DRAM bandwidth
  std::vector<perf::RegionProfile> regions;
  std::size_t footprint_bytes = 0;
  bool hit_cycle_limit = false;
  /// Per-request latency distribution (empty for batch workloads).
  sim::LatencyStats latency;
};

/// Runs `workload` alone on cores [0, threads): the 1-member
/// run_group (harness/group.hpp). A co-run pair is
/// run_group(GroupSpec::pair(fg, bg), opt).
RunResult run_solo(std::string_view workload, const RunOptions& opt = {});

}  // namespace coperf::harness
