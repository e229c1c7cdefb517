// Fig. 3: memory bandwidth of every application at 1, 4, and 8
// threads, measured PCM-style over the whole run. One plan of solo
// specs; thread counts already simulated elsewhere are cache hits.
#include "bench_common.hpp"
#include "harness/report.hpp"
#include "wl/registry.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  const auto args = bench::parse_args(argc, argv, bench::kCsv | bench::kJson);
  bench::print_config(args, "Fig. 3 -- per-app DRAM bandwidth (GB/s)");

  constexpr unsigned kThreadCounts[] = {1, 4, 8};
  const auto workloads = wl::Registry::instance().all();

  harness::ExperimentPlan plan = args.plan();
  for (const auto* w : workloads)
    for (unsigned t : kThreadCounts)
      plan.add_solo({w->name, t, args.effective_reps()});
  const harness::ResultSet rs = plan.execute(0, bench::plan_progress());

  harness::Table table{{"suite", "workload", "1-thread", "4-thread",
                        "8-thread"}};
  harness::Table csv{{"suite", "workload", "threads", "bw_gbs"}};
  for (const auto* w : workloads) {
    std::vector<std::string> row{w->suite, w->name};
    for (unsigned t : kThreadCounts) {
      const double bw =
          rs.solo({w->name, t, args.effective_reps()}).avg_bw_gbs;
      row.push_back(harness::Table::fmt(bw, 1));
      csv.add_row({w->suite, w->name, std::to_string(t),
                   harness::Table::fmt(bw, 2)});
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(system practical peak: "
            << args.machine().peak_bw_gbs << " GB/s; paper anchors @4T: "
            << "Stream 24.5, Bandit 18, fotonik3d 18.4, IRSmk 18.1, "
               "G-CC 17.8, CIFAR 7-8)\n";
  if (args.csv) std::cout << "\n" << csv.to_csv();
  if (args.json) {
    std::cout << "\n[";
    bool first = true;
    for (const auto* w : workloads)
      for (unsigned t : kThreadCounts) {
        if (!first) std::cout << ", ";
        first = false;
        std::cout << harness::report::to_json(
            rs.solo({w->name, t, args.effective_reps()}));
      }
    std::cout << "]\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
