// Fig. 7 (a-d): CPI, L2_PCP, LLC MPKI and LL of the five GeminiGraph
// applications' hot edge loops, solo vs. co-running with Stream.
#include "bench_common.hpp"
#include "harness/report.hpp"

namespace {

coperf::perf::RegionProfile hot_region(
    const std::vector<coperf::perf::RegionProfile>& regions) {
  // Regions are sorted by cycles; take the hottest tagged one.
  for (const auto& r : regions)
    if (r.region != "<untagged>") return r;
  return regions.empty() ? coperf::perf::RegionProfile{} : regions.front();
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace coperf;
  const auto args = bench::parse_args(argc, argv, bench::kCsv);
  bench::print_config(args,
                      "Fig. 7 -- Gemini hot-region metrics, solo vs Stream");

  const char* apps[] = {"G-SSSP", "G-PR", "G-CC", "G-BC", "G-BFS"};
  const unsigned reps = args.effective_reps();
  const harness::RunOptions opt = args.run_options();

  harness::ExperimentPlan plan = args.plan();
  auto vs_stream = [&](const char* app) {
    return harness::GroupSpec::pair(app, "Stream", opt.threads,
                                    opt.bg_threads);
  };
  for (const char* app : apps) {
    plan.add_solo({app, args.threads, reps});
    plan.add_group(vs_stream(app), reps);
  }
  const harness::ResultSet rs = plan.execute(0, bench::plan_progress());

  harness::Table table{{"workload", "region", "CPI solo", "CPI +Stream",
                        "PCP solo", "PCP +Stream", "MPKI solo", "MPKI +Stream",
                        "LL solo", "LL +Stream"}};
  using harness::Table;
  Table csv{{"workload", "cpi_solo", "cpi_stream", "pcp_solo", "pcp_stream",
             "mpki_solo", "mpki_stream", "ll_solo", "ll_stream"}};
  for (const char* app : apps) {
    const auto solo = rs.solo({app, args.threads, reps});
    const auto pair = rs.group(vs_stream(app), reps);
    const auto rsolo = hot_region(solo.regions);
    const auto rp = hot_region(pair.members[0].regions);
    table.add_row({app, rsolo.region, Table::fmt(rsolo.stats.cpi()),
                   Table::fmt(rp.stats.cpi()),
                   Table::fmt(rsolo.stats.l2_pcp() * 100, 0) + "%",
                   Table::fmt(rp.stats.l2_pcp() * 100, 0) + "%",
                   Table::fmt(rsolo.stats.llc_mpki()),
                   Table::fmt(rp.stats.llc_mpki()),
                   Table::fmt(rsolo.stats.ll()), Table::fmt(rp.stats.ll())});
    csv.add_row({app, Table::fmt(rsolo.stats.cpi(), 3),
                 Table::fmt(rp.stats.cpi(), 3),
                 Table::fmt(rsolo.stats.l2_pcp(), 3),
                 Table::fmt(rp.stats.l2_pcp(), 3),
                 Table::fmt(rsolo.stats.llc_mpki(), 3),
                 Table::fmt(rp.stats.llc_mpki(), 3),
                 Table::fmt(rsolo.stats.ll(), 3),
                 Table::fmt(rp.stats.ll(), 3)});
  }
  table.print(std::cout);
  std::cout << "\n(paper: under Stream, LLC MPKI ~x2.6, CPI >x2, L2_PCP up "
               "to 93% for G-PR, LL >x2)\n";
  if (args.csv) std::cout << "\n" << csv.to_csv();
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
