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

/// Classification thresholds on S(max threads). The paper's Table II
/// buckets are Low / Medium ("saturate") / High.
struct ScalThresholds {
  double low_below = 2.5;
  double high_at_least = 5.0;
};

ScalClass classify_scalability(double s_max, const ScalThresholds& t = {});

}  // namespace coperf::harness
