// The full co-running matrix (paper Section V, Fig. 5): every workload
// as foreground against every workload as background, normalized to
// the solo run. The sweep itself is an ExperimentPlan MatrixSpec
// (harness/plan.hpp).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/classify.hpp"
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

/// Slowdown of `job` co-resident with `others` on one machine: pairwise
/// excess slowdowns compose additively (each co-runner independently
/// steals its share of the channel/LLC), clamped to >= 1.0. With a
/// single co-runner this is exactly the matrix entry.
double corun_slowdown(const CorunMatrix& m, std::size_t job,
                      const std::vector<std::size_t>& others);

}  // namespace coperf::harness
