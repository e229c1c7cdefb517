// Bandwidth reporting over the machine's sampled traffic timeline --
// the Intel PCM (pcm-memory) analogue used throughout the paper's
// Sections IV-B, V-B and Table III.
#pragma once

#include <vector>

#include "sim/machine.hpp"

namespace coperf::perf {

struct BandwidthReport {
  double avg_total_gbs = 0.0;           ///< whole-socket average
  std::vector<double> app_avg_gbs;      ///< per app binding
};

/// Summarizes the machine's bandwidth timeline. `skip_windows` drops
/// leading warm-up samples (cold caches inflate early traffic).
BandwidthReport summarize_bandwidth(const sim::Machine& m,
                                    std::size_t skip_windows = 1);

}  // namespace coperf::perf
