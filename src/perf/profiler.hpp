// Region profiler: maps per-core region counters back to the named
// source regions workload models declared (the VTune hot-spot
// attribution the paper uses in Section VI).
#pragma once

#include <vector>

#include "perf/metrics.hpp"
#include "sim/machine.hpp"

namespace coperf::perf {

/// Named per-region profiles for application binding `app_index`,
/// ordered by cycles descending. Regions below `min_cycles` are
/// dropped (noise from region-entry transitions).
std::vector<RegionProfile> profile_app(sim::Machine& m, std::size_t app_index,
                                       std::uint64_t min_cycles = 0);

}  // namespace coperf::perf
