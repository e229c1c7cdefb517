#include "perf/profiler.hpp"

#include <algorithm>

#include "wl/regions.hpp"

namespace coperf::perf {

std::vector<RegionProfile> profile_app(sim::Machine& m, std::size_t app_index,
                                       std::uint64_t min_cycles) {
  std::vector<RegionProfile> out;
  for (const auto& [region_id, stats] : m.app_region_stats(app_index)) {
    if (stats.cycles < min_cycles) continue;
    out.push_back({wl::Regions::instance().name(region_id), stats});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.stats.cycles > b.stats.cycles;
  });
  return out;
}

}  // namespace coperf::perf
