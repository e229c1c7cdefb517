// Interference-provenance deep dive (paper Section VI): profile one
// victim's hot region solo and under several aggressors, VTune-style,
// printing the paper's four metrics (CPI, L2_PCP, LLC MPKI, LL). The
// solo run and every co-run execute as one plan.
//
// Usage: provenance_study [victim] [region-substring] [bg1 bg2 ...]
//   e.g. provenance_study P-PR gather IRSmk CIFAR fotonik3d
#include <exception>
#include <iostream>
#include <vector>

#include "harness/plan.hpp"
#include "harness/report.hpp"

namespace {

coperf::perf::RegionProfile find_region(
    const std::vector<coperf::perf::RegionProfile>& regions,
    const std::string& needle) {
  for (const auto& r : regions)
    if (r.region.find(needle) != std::string::npos) return r;
  return {};
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace coperf;
  const std::string victim = argc > 1 ? argv[1] : "P-PR";
  const std::string region = argc > 2 ? argv[2] : "gather";
  std::vector<std::string> aggressors;
  for (int i = 3; i < argc; ++i) aggressors.emplace_back(argv[i]);
  if (aggressors.empty()) aggressors = {"IRSmk", "CIFAR", "fotonik3d"};

  std::cout << "provenance study: " << victim << " region ~'" << region
            << "' vs. " << aggressors.size() << " aggressors\n\n";

  harness::ExperimentPlan plan;  // scaled paper machine, Small inputs
  plan.add_solo({victim});
  for (const auto& bg : aggressors)
    plan.add_group(harness::GroupSpec::pair(victim, bg));
  const harness::ResultSet rs = plan.execute();

  harness::Table table{{"co-runner", "CPI", "LLC MPKI", "L2_PCP", "LL"}};
  using harness::Table;

  const auto solo = rs.solo({victim});
  const auto solo_region = find_region(solo.regions, region);
  if (solo_region.region.empty()) {
    std::cerr << "no region matching '" << region << "' in " << victim
              << "; available:\n";
    for (const auto& r : solo.regions) std::cerr << "  " << r.region << "\n";
    return 1;
  }
  table.add_row({"(none)", Table::fmt(solo_region.stats.cpi()),
                 Table::fmt(solo_region.stats.llc_mpki()),
                 Table::fmt(solo_region.stats.l2_pcp() * 100, 0) + "%",
                 Table::fmt(solo_region.stats.ll())});

  for (const auto& bg : aggressors) {
    const auto pair = rs.group(harness::GroupSpec::pair(victim, bg));
    const auto r = find_region(pair.members[0].regions, region);
    table.add_row({bg, Table::fmt(r.stats.cpi()),
                   Table::fmt(r.stats.llc_mpki()),
                   Table::fmt(r.stats.l2_pcp() * 100, 0) + "%",
                   Table::fmt(r.stats.ll())});
  }

  std::cout << "region: " << solo_region.region << "\n";
  table.print(std::cout);
  std::cout << "\n(LL = CPI * L2_PCP / L2-misses-per-instruction, the "
               "paper's average shared-resource latency metric)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
