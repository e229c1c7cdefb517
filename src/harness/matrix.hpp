// The full co-running matrix (paper Section V, Fig. 5): every workload
// as foreground against every workload as background, normalized to
// the solo run. The sweep itself is an ExperimentPlan MatrixSpec
// (harness/plan.hpp).
#pragma once

#include <algorithm>
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
inline double corun_slowdown(const CorunMatrix& m, std::size_t job,
                             const std::vector<std::size_t>& others) {
  double excess = 0.0;
  for (const std::size_t o : others) excess += m.at(job, o) - 1.0;
  return std::max(1.0, 1.0 + excess);
}

/// The additive model's price terms for admitting `job` with `work`
/// units of work next to residents of `types` (slot order): returns
/// the job's own term, (corun_slowdown(m, job, types) - 1) * work, and
/// fills `coef` with each resident's pair excess m(type, job) - 1. A
/// machine's price is the own term plus each coefficient times that
/// resident's remaining work, summed in slot order.
inline double admission_terms(const CorunMatrix& m, std::size_t job,
                              double work,
                              const std::vector<std::size_t>& types,
                              std::vector<double>& coef) {
  coef.resize(types.size());
  for (std::size_t i = 0; i < types.size(); ++i)
    coef[i] = m.at(types[i], job) - 1.0;
  return (corun_slowdown(m, job, types) - 1.0) * work;
}

}  // namespace coperf::harness
