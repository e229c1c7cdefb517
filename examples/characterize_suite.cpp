// Suite characterization: the paper's sole-run methodology (Section IV)
// over one whole application suite -- thread scalability class,
// bandwidth at 1/4/8 threads, and prefetcher sensitivity per app --
// expressed as ONE experiment plan. The scalability sweep's 4- and
// 8-thread solos double as the bandwidth samples (the plan dedupes
// them), and everything executes in a single parallel pass.
//
// Usage: characterize_suite [suite]
//   suites: GeminiGraph PowerGraph CNTK PARSEC HPC "SPEC CPU2017"
#include <exception>
#include <iostream>

#include "harness/plan.hpp"
#include "harness/report.hpp"
#include "wl/registry.hpp"

int main(int argc, char** argv) try {
  const std::string suite = argc > 1 ? argv[1] : "GeminiGraph";
  const auto members = coperf::wl::Registry::instance().suite(suite);
  if (members.empty()) {
    std::cerr << "unknown suite: " << suite
              << " (try GeminiGraph, PowerGraph, CNTK, PARSEC, HPC, "
                 "\"SPEC CPU2017\")\n";
    return 1;
  }

  std::cout << "characterizing suite " << suite << " ("
            << members.size() << " workloads)\n\n";

  coperf::harness::ExperimentPlan plan;  // scaled machine, Small inputs
  for (const auto* w : members) {
    plan.add_scalability({w->name, 8});  // includes the 1/4/8-thread solos
    plan.add_prefetch({w->name, 4});
  }
  std::cout << "plan: " << plan.trial_count() << " unique trials ("
            << plan.residue_count() << " to simulate)\n\n";
  const auto results = plan.execute();

  coperf::harness::Table table{{"workload", "S(2)", "S(4)", "S(8)", "class",
                                "BW@1T", "BW@4T", "BW@8T", "prefetch"}};
  using coperf::harness::Table;
  for (const auto* w : members) {
    const auto scal = results.scalability({w->name, 8});
    const auto pf = results.prefetch({w->name, 4});
    table.add_row({w->name, Table::fmt(scal.speedup[1]),
                   Table::fmt(scal.speedup[3]), Table::fmt(scal.speedup[7]),
                   coperf::harness::to_string(scal.cls),
                   Table::fmt(scal.bw_gbs[0], 1), Table::fmt(scal.bw_gbs[3], 1),
                   Table::fmt(scal.bw_gbs[7], 1),
                   Table::fmt(pf.speedup_ratio)});
  }
  table.print(std::cout);
  std::cout << "\n(S(t): speedup at t threads; BW in GB/s; prefetch: "
               "t_on/t_off, lower = more prefetch-sensitive)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
