// Table IV: VTune-style profiles of P-PR's gather region and
// fotonik3d's UUS region -- solo and under each co-runner the paper
// pairs them with (IRSmk, CIFAR, fotonik3d, G-SSSP).
#include "bench_common.hpp"
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
  const auto args = bench::parse_args(argc, argv);
  bench::print_config(args, "Table IV -- P-PR(gather) / fotonik3d(UUS)");

  struct Subject {
    const char* app;
    const char* region;
    std::vector<const char*> co_runners;
  };
  const Subject subjects[] = {
      {"P-PR", "gather", {"IRSmk", "CIFAR", "fotonik3d"}},
      {"fotonik3d", "UUS", {"IRSmk", "CIFAR", "G-SSSP"}},
  };

  const unsigned reps = args.effective_reps();
  const harness::RunOptions opt = args.run_options();
  auto vs = [&](const char* app, const char* bg) {
    return harness::GroupSpec::pair(app, bg, opt.threads, opt.bg_threads);
  };
  harness::ExperimentPlan plan = args.plan();
  for (const auto& s : subjects) {
    plan.add_solo({s.app, args.threads, reps});
    for (const char* bg : s.co_runners) plan.add_group(vs(s.app, bg), reps);
  }
  const harness::ResultSet results = plan.execute(0, bench::plan_progress());

  using harness::Table;
  for (const auto& s : subjects) {
    Table table{{"co-runner", "CPI", "LLC MPKI", "L2_PCP", "LL"}};
    const auto solo = results.solo({s.app, args.threads, reps});
    const auto rsolo = find_region(solo.regions, s.region);
    table.add_row({"(none)", Table::fmt(rsolo.stats.cpi()),
                   Table::fmt(rsolo.stats.llc_mpki()),
                   Table::fmt(rsolo.stats.l2_pcp() * 100, 0) + "%",
                   Table::fmt(rsolo.stats.ll())});
    for (const char* bg : s.co_runners) {
      const auto pair = results.group(vs(s.app, bg), reps);
      const auto rp = find_region(pair.members[0].regions, s.region);
      table.add_row({std::string{"with "} + bg, Table::fmt(rp.stats.cpi()),
                     Table::fmt(rp.stats.llc_mpki()),
                     Table::fmt(rp.stats.l2_pcp() * 100, 0) + "%",
                     Table::fmt(rp.stats.ll())});
    }
    std::cout << s.app << " (" << s.region << " region)\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout
      << "(paper anchors: P-PR gather CPI 2.3 solo -> 3.5-4.3 under\n"
         " offenders; fotonik3d UUS CPI 2.0 -> 3.2-3.6 under IRSmk/CIFAR\n"
         " but unchanged under G-SSSP; fotonik3d LLC MPKI ~21 and stable\n"
         " across co-runners -- a bandwidth victim, not a cache victim)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
