// Fig. 4: prefetcher sensitivity -- normalized runtime with all four
// hardware prefetchers enabled vs. disabled (MSR 0x1A4 sweep), at 4
// threads. Values < 1 mean the application depends on prefetchers.
#include "bench_common.hpp"
#include "harness/report.hpp"
#include "wl/registry.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  const auto args = bench::parse_args(argc, argv, bench::kCsv | bench::kJson);
  bench::print_config(args, "Fig. 4 -- prefetch sensitivity (t_on / t_off)");

  const auto workloads = wl::Registry::instance().all();
  harness::ExperimentPlan plan = args.plan();
  for (const auto* w : workloads)
    plan.add_prefetch({w->name, args.threads});
  const harness::ResultSet rs = plan.execute(0, bench::plan_progress());

  harness::Table table{{"suite", "workload", "speedup", "bw_on", "bw_off"}};
  std::vector<harness::PrefetchSensitivity> sens;
  for (const auto* w : workloads) {
    sens.push_back(rs.prefetch({w->name, args.threads}));
    const auto& s = sens.back();
    table.add_row({w->suite, w->name, harness::Table::fmt(s.speedup_ratio),
                   harness::Table::fmt(s.bw_on_gbs, 1),
                   harness::Table::fmt(s.bw_off_gbs, 1)});
  }
  table.print(std::cout);
  std::cout << "\n(paper: graph + CNTK apps ~1.0 [insensitive]; "
               "streamcluster, HPC apps, fotonik3d ~0.85 [sensitive])\n";
  if (args.csv) std::cout << "\n" << harness::report::to_csv(sens);
  if (args.json) std::cout << "\n" << harness::report::to_json(sens) << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
