// Fig. 8 (a-d): the same four metrics for the five GeminiGraph
// applications co-running with each of the paper's three offender
// applications (IRSmk, fotonik3d, CIFAR). One plan covers all 5
// solos + 15 pairs; the solos dedupe against fig7's.
#include "bench_common.hpp"
#include "harness/report.hpp"

namespace {

coperf::perf::RegionProfile hot_region(
    const std::vector<coperf::perf::RegionProfile>& regions) {
  for (const auto& r : regions)
    if (r.region != "<untagged>") return r;
  return regions.empty() ? coperf::perf::RegionProfile{} : regions.front();
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace coperf;
  const auto args = bench::parse_args(argc, argv);
  bench::print_config(
      args, "Fig. 8 -- Gemini hot-region metrics vs offender apps");

  const char* apps[] = {"G-SSSP", "G-PR", "G-CC", "G-BC", "G-BFS"};
  const char* offenders[] = {"IRSmk", "fotonik3d", "CIFAR"};
  const unsigned reps = args.effective_reps();
  const harness::RunOptions opt = args.run_options();
  using harness::Table;

  auto vs = [&](const char* app, const char* off) {
    return harness::GroupSpec::pair(app, off, opt.threads, opt.bg_threads);
  };
  harness::ExperimentPlan plan = args.plan();
  for (const char* app : apps) {
    plan.add_solo({app, args.threads, reps});
    for (const char* off : offenders) plan.add_group(vs(app, off), reps);
  }
  const harness::ResultSet rs = plan.execute(0, bench::plan_progress());

  for (const char* metric : {"CPI", "L2_PCP", "LLC MPKI", "LL"}) {
    Table table{{"workload", "solo", "+IRSmk", "+fotonik3d", "+CIFAR"}};
    for (const char* app : apps) {
      const auto solo = rs.solo({app, args.threads, reps});
      std::vector<std::string> row{app};
      auto metric_of = [&](const perf::RegionProfile& r) {
        const std::string m{metric};
        if (m == "CPI") return Table::fmt(r.stats.cpi());
        if (m == "L2_PCP") return Table::fmt(r.stats.l2_pcp() * 100, 0) + "%";
        if (m == "LLC MPKI") return Table::fmt(r.stats.llc_mpki());
        return Table::fmt(r.stats.ll());
      };
      row.push_back(metric_of(hot_region(solo.regions)));
      for (const char* off : offenders) {
        const auto pair = rs.group(vs(app, off), reps);
        row.push_back(metric_of(hot_region(pair.members[0].regions)));
      }
      table.add_row(std::move(row));
    }
    std::cout << "Fig. 8 -- " << metric << "\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "(paper: offenders raise Gemini LLC MPKI by up to ~18% and "
               "LL by >100%, milder than Stream)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
