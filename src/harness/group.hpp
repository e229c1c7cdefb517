// N-way co-run groups -- the generalization of the paper's fg/bg pair
// harness (Section V, Fig. 1) to an arbitrary number of co-resident
// applications on one machine.
//
// A GroupSpec places N workloads on disjoint core ranges: member i
// occupies the cores immediately after member i-1, so a {4,4} pair is
// the paper's fg cores 0..3 / bg cores 4..7 layout, and a {2,2,2,2}
// group packs four 2-thread residents onto an 8-core machine. Each
// member chooses its own thread count, may override the input size
// class, and picks its completion semantics:
//   * restart_until_done = false (default): the member runs to
//     completion and the group ends when every such member finished
//     ("foreground" semantics);
//   * restart_until_done = true: the member loops, restarting
//     indefinitely until the foregrounds finish, and its completed
//     iteration count is reported ("background" semantics).
//
// GroupSpec::pair() is the 2-member special case, and run_group() on
// it is bit-identical to the pre-group pair harness (guarded by the
// golden snapshots in tests/sim_equivalence_test); 3+-member groups
// are the scenarios the pair-era API could not express (>2-way
// interference, observation deconvolution, heterogeneous slot
// packing). Repeated runs and their median come from ExperimentPlan
// (harness/plan.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace coperf::harness {

/// One application inside a co-run group.
struct MemberSpec {
  std::string workload;
  unsigned threads = 4;
  /// Input size override for this member (unset = RunOptions::size).
  std::optional<wl::SizeClass> size;
  /// Background loop semantics: restart until the foregrounds finish.
  bool restart_until_done = false;
};

/// N workloads on disjoint core ranges of one machine, in placement
/// order (member 0 starts at core 0).
struct GroupSpec {
  std::vector<MemberSpec> members;

  /// The 1-member group: `workload` alone on cores [0, threads).
  static GroupSpec solo(std::string workload, unsigned threads = 4);
  /// The paper's pair: fg runs to completion on the first cores, bg
  /// loops on the next ones.
  static GroupSpec pair(std::string fg, std::string bg,
                        unsigned fg_threads = 4, unsigned bg_threads = 4);

  unsigned total_threads() const;
};

/// Result of one group run: a full per-member RunResult each (stats,
/// bandwidth, regions, latency), plus group-level aggregates.
struct GroupResult {
  std::vector<RunResult> members;
  /// Completed iterations per member (0 for run-to-completion members
  /// and for a background member that never finished an iteration).
  std::vector<std::uint64_t> runs_completed;
  double total_avg_bw_gbs = 0.0;
  sim::Cycle finish_cycle = 0;  ///< when the last foreground retired
  bool hit_cycle_limit = false;
};

/// Runs the group, placing member i on the cores directly after member
/// i-1. Member i's RNG stream is seeded with opt.seed + i * 0x9E37
/// (the pair harness' bg-seed convention, generalized). Throws
/// std::invalid_argument for empty groups, groups with no
/// run-to-completion member, zero-thread members, or more total
/// threads than the machine has cores.
GroupResult run_group(const GroupSpec& spec, const RunOptions& opt = {});

}  // namespace coperf::harness
