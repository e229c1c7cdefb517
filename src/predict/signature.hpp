// Per-workload interference signatures (prediction subsystem).
//
// A WorkloadSignature condenses one *solo* run into the counter-based
// feature vector the interference models consume: the paper's four
// VTune metrics (Section VI-A), bandwidth demand relative to the
// machine's practical peak (Section VI-B / Fig. 3), footprint relative
// to the shared LLC, and hot-region aggregates. Collecting N
// signatures costs N solo runs -- the O(N) input from which the
// predictors reconstruct the O(N^2) co-run matrix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "sim/config.hpp"

namespace coperf::predict {

struct WorkloadSignature {
  std::string workload;
  unsigned threads = 0;

  // The paper's derived metrics, from the solo run.
  double cpi = 0.0;
  double ipc = 0.0;
  double l2_pcp = 0.0;
  double llc_mpki = 0.0;
  double l2_mpki = 0.0;
  double ll = 0.0;

  // Shared-resource demand, normalized by the machine so the models
  // stay machine-independent.
  double bw_fraction = 0.0;     ///< solo DRAM bandwidth / practical peak
  double solo_bw_gbs = 0.0;
  double footprint_vs_llc = 0.0;///< allocated bytes / LLC capacity
  double mem_stall_frac = 0.0;  ///< memory-blocked cycles / cycles
  /// Fraction of DRAM traffic the prefetchers fetched ahead of demand.
  /// Separates spatial streamers (which sweep the whole LLC and whose
  /// latency exposure is hidden until the channel contends) from
  /// conflict-miss generators like Bandit (all-demand traffic confined
  /// to a few sets, which barely hurts co-runners -- paper Fig. 6a).
  double prefetch_share = 0.0;

  // Hot-region aggregates: the worst region dominates co-run behaviour
  // (paper Section VI-C, Table IV).
  double peak_region_llc_mpki = 0.0;
  double peak_region_l2_pcp = 0.0;

  // Solo baseline the predicted matrix normalizes against.
  sim::Cycle solo_cycles = 0;
  double solo_seconds = 0.0;

  // Tail pass-through for latency-critical serving workloads: the solo
  // p99/p50 request latency in cycles and the request count, straight
  // from RunResult::latency. All zero for batch workloads (no request
  // distribution) -- a tail-aware model can use these as features; the
  // throughput models ignore them.
  double solo_lat_p50 = 0.0;
  double solo_lat_p99 = 0.0;
  std::uint64_t request_count = 0;
  bool latency_critical() const { return request_count > 0; }

  /// Offender score: how hard this workload presses the shared LLC and
  /// memory channel (what it does *to* a co-runner).
  double intensity() const;
  /// Victim score: how much of this workload's time depends on the
  /// shared levels staying fast (what a co-runner can do *to it*).
  double sensitivity() const;

  /// Fraction of L2 misses that reach DRAM (the rest hit in the LLC).
  double dram_share() const;
  /// LLC-resident reuse: L2-miss traffic served by the shared cache,
  /// which an LLC-sweeping offender converts into DRAM round trips.
  double llc_reuse_exposure() const;
  /// How much of the LLC this workload actively sweeps per unit time
  /// (footprint x bandwidth x spatial streaming).
  double llc_sweep_pressure() const;
  /// Fraction of execution time on the DRAM channel (demand or
  /// prefetch) -- the part a saturated channel stretches.
  double channel_bound_frac() const;

  /// Raw feature vector (order matches feature_names()).
  std::vector<double> features() const;
  static const std::vector<std::string>& feature_names();

  /// Extracts the signature from a solo RunResult.
  static WorkloadSignature from(const harness::RunResult& solo,
                                const sim::MachineConfig& machine);

  bool operator==(const WorkloadSignature&) const = default;
};

/// Runs each workload alone (median of `reps` seeds) and extracts its
/// signature -- the O(N) measurement pass, executed as one
/// ExperimentPlan of solo specs (one signature per input name, in
/// order; repeated names simulate once).
std::vector<WorkloadSignature> collect_signatures(
    const std::vector<std::string>& workloads, const harness::RunOptions& opt,
    unsigned reps = 3);

/// Text serialization (header "coperf-signatures v2", then one
/// signature per line, tab-separated, serving-latency fields last), so
/// solo profiling and matrix prediction can run as separate processes.
/// The loader throws std::runtime_error on any other header, a signed
/// or fractional count, or a line with missing or extra fields.
void save_signatures(std::ostream& os, const std::vector<WorkloadSignature>& sigs);
std::vector<WorkloadSignature> load_signatures(std::istream& is);

}  // namespace coperf::predict
