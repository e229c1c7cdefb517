// Prefetcher-sensitivity study (paper Section IV-C, Fig. 4): run each
// application solo at a fixed thread count with all hardware
// prefetchers on vs. off (the MSR 0x1A4 experiment) and report the
// normalized "speedup" t_on / t_off (<= 1 means prefetchers help).
// Run it with ExperimentPlan::add_prefetch and read it with
// ResultSet::prefetch (harness/plan.hpp).
#pragma once

#include <string>

#include "harness/runner.hpp"

namespace coperf::harness {

struct PrefetchSensitivity {
  std::string workload;
  sim::Cycle cycles_on = 0;
  sim::Cycle cycles_off = 0;
  /// t_on / t_off, as plotted in Fig. 4 (lower == more sensitive).
  double speedup_ratio = 1.0;
  double bw_on_gbs = 0.0;
  double bw_off_gbs = 0.0;
};

}  // namespace coperf::harness
