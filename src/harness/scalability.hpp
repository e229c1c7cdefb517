// Thread-scalability sweep (paper Section IV-A, Fig. 2, Table II).
// Run it with ExperimentPlan::add_scalability and read it with
// ResultSet::scalability (harness/plan.hpp). For SPEC-rate workloads
// speedup is throughput-based: S(T) = T * t(1copy) / t(Tcopies).
#pragma once

#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace coperf::harness {

enum class ScalClass { Low, Medium, High };

const char* to_string(ScalClass c);

struct ScalabilityResult {
  std::string workload;
  bool rate_mode = false;
  std::vector<unsigned> threads;     ///< swept thread counts
  std::vector<sim::Cycle> cycles;    ///< runtime at each count
  std::vector<double> speedup;       ///< vs. 1 thread (throughput for rate)
  std::vector<double> bw_gbs;        ///< bandwidth at each count
  ScalClass cls = ScalClass::Low;

  double max_speedup() const;
};

/// Classifies S(max threads) into the paper's Table II buckets: Low
/// below 2.5, High from 5.0, Medium ("saturate") in between.
ScalClass classify_scalability(double s_max);

}  // namespace coperf::harness
