// N-way co-run demo: the experiment the pair-era API could not
// express -- three (or more) applications resident on one machine at
// once, each pinned to its own core range, with per-member slowdowns
// against their solo baselines.
//
// Usage: corun_group [appA appB appC ...]
//   e.g. corun_group G-CC CIFAR fotonik3d
//
// Every member runs 2 threads and runs to completion except the last,
// which loops background-style until the others finish (the paper's
// restart-until-done semantics, generalized). A plan collects the
// group and the solo baselines, so nothing simulates twice.
#include <exception>
#include <iostream>

#include "harness/plan.hpp"
#include "harness/report.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  std::vector<std::string> apps;
  for (int i = 1; i < argc; ++i) apps.push_back(argv[i]);
  if (apps.empty()) apps = {"G-CC", "CIFAR", "fotonik3d"};
  if (apps.size() < 2) {
    std::cerr << "need at least two workloads\n";
    return 1;
  }

  const harness::RunOptions opt;  // scaled paper machine, Small inputs
  const unsigned threads =
      static_cast<unsigned>(opt.machine.num_cores / apps.size());
  if (threads == 0) {
    std::cerr << "more workloads than cores\n";
    return 1;
  }

  harness::GroupSpec spec;
  for (std::size_t i = 0; i < apps.size(); ++i)
    spec.members.push_back(harness::MemberSpec{
        apps[i], threads, {}, /*restart_until_done=*/i + 1 == apps.size()});

  std::cout << "co-running " << apps.size() << " members, " << threads
            << " threads each:\n";
  unsigned first = 0;
  for (const auto& m : spec.members) {
    std::cout << "  cores " << first << "-" << first + m.threads - 1 << ": "
              << m.workload << (m.restart_until_done ? " (looping)" : "")
              << "\n";
    first += m.threads;
  }
  std::cout << "\n";

  // One plan: the group plus each member's solo baseline at the same
  // thread count (deduplicated against the run cache).
  harness::ExperimentPlan plan{opt};
  plan.add_group(spec);
  for (const auto& a : apps) plan.add_solo({a, threads});
  const auto results = plan.execute();
  const auto g = results.group(spec);

  for (std::size_t i = 0; i < g.members.size(); ++i) {
    const auto& m = g.members[i];
    const auto solo = results.solo({apps[i], threads});
    std::cout << m.workload << ":\n"
              << "  solo   : " << solo.cycles << " cycles, "
              << solo.avg_bw_gbs << " GB/s\n"
              << "  grouped: " << m.cycles << " cycles ("
              << harness::Table::fmt(static_cast<double>(m.cycles) /
                                     static_cast<double>(solo.cycles))
              << "x), " << m.avg_bw_gbs << " GB/s, LLC MPKI "
              << m.metrics.llc_mpki;
    if (spec.members[i].restart_until_done)
      std::cout << ", " << g.runs_completed[i] << " completed iterations";
    std::cout << "\n";
  }
  std::cout << "\ncombined bandwidth: " << g.total_avg_bw_gbs
            << " GB/s; group finished at cycle " << g.finish_cycle << "\n";
  std::cout << "\nJSON (report::to_json):\n"
            << harness::report::to_json(g) << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
