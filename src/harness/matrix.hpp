// The full co-running matrix (paper Section V, Fig. 5): every workload
// as foreground against every workload as background, normalized to
// the solo run. Simulations are independent, so the sweep fans out
// over a host thread pool.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/classify.hpp"
#include "harness/parallel.hpp"
#include "harness/runner.hpp"

namespace coperf::harness {

struct CorunMatrix {
  std::vector<std::string> workloads;  ///< axis order (paper Fig. 5 order)
  std::vector<sim::Cycle> solo_cycles; ///< per workload
  /// normalized[fg][bg] = t(fg with bg) / t(fg solo).
  std::vector<std::vector<double>> normalized;

  double at(std::size_t fg, std::size_t bg) const {
    if (fg >= normalized.size() || bg >= normalized[fg].size())
      throw std::out_of_range{"CorunMatrix::at: index outside the matrix"};
    return normalized[fg][bg];
  }
  std::size_t size() const { return workloads.size(); }

  /// Classification of the unordered pair (i, j) from both orderings.
  PairClass pair_class(std::size_t i, std::size_t j) const;

  /// Counts of each class over all unordered pairs.
  struct ClassCounts {
    std::size_t harmony = 0, victim_offender = 0, both_victim = 0;
  };
  ClassCounts count_classes() const;
};

struct MatrixOptions {
  RunOptions run;
  unsigned reps = 3;           ///< median-of-N (paper: 3 runs per pair)
  unsigned host_threads = 0;   ///< 0 = hardware_concurrency
  /// StaticChunk gives a reproducible index-to-worker partition for
  /// benchmarking (bench/sim_throughput); Dynamic balances load.
  ParallelSchedule schedule = ParallelSchedule::Dynamic;
  /// Restrict to a subset of workloads (empty = all 25 applications).
  std::vector<std::string> subset;
  /// Precomputed solo baselines, one per workload in the exact axis
  /// order of `subset` (e.g. from an earlier signature-collection pass
  /// over the same list). When non-empty the solo pass is skipped; a
  /// size mismatch throws. The caller is responsible for the order --
  /// build this and `subset` from the same vector.
  std::vector<sim::Cycle> solo_cycles;
};

/// Runs the (subset of the) 25x25 sweep. With the default subset this
/// is the paper's 625-pair experiment.
CorunMatrix corun_matrix(const MatrixOptions& opt = {});

}  // namespace coperf::harness
