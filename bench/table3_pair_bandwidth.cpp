// Table III: bandwidth consumption of the paper's five problematic
// co-running pairs -- the combined bandwidth and each member's solo
// bandwidth (all at 4+4 threads).
#include "bench_common.hpp"
#include "harness/report.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  const auto args = bench::parse_args(argc, argv, bench::kCsv);
  bench::print_config(args, "Table III -- pair bandwidth (GB/s)");

  struct Pair {
    const char* a;
    const char* b;
    const char* paper;  // pair / A solo / B solo
  };
  const Pair pairs[] = {
      {"CIFAR", "fotonik3d", "18.0 / 7.3 / 18.4"},
      {"IRSmk", "fotonik3d", "24.5 / 18.1 / 18.4"},
      {"G-CC", "fotonik3d", "18.6 / 17.8 / 18.4"},
      {"G-CC", "IRSmk", "26.3 / 17.8 / 18.1"},
      {"G-CC", "CIFAR", "18.6 / 17.8 / 18.0"},
  };

  const unsigned reps = args.effective_reps();
  const harness::RunOptions opt = args.run_options();
  auto group_of = [&](const Pair& p) {
    return harness::GroupSpec::pair(p.a, p.b, opt.threads, opt.bg_threads);
  };
  harness::ExperimentPlan plan = args.plan();
  for (const auto& p : pairs) {
    plan.add_solo({p.a, args.threads, reps});
    plan.add_solo({p.b, args.threads, reps});
    plan.add_group(group_of(p), reps);
  }
  const harness::ResultSet rs = plan.execute(0, bench::plan_progress());

  harness::Table table{{"pair", "co-run BW", "A solo", "B solo", "solo sum",
                        "paper (pair/A/B)"}};
  harness::Table csv{{"a", "b", "pair_bw", "a_solo", "b_solo"}};
  for (const auto& p : pairs) {
    const auto a_solo = rs.solo({p.a, args.threads, reps});
    const auto b_solo = rs.solo({p.b, args.threads, reps});
    const auto pair = rs.group(group_of(p), reps);
    table.add_row({std::string{p.a} + " + " + p.b,
                   harness::Table::fmt(pair.total_avg_bw_gbs, 1),
                   harness::Table::fmt(a_solo.avg_bw_gbs, 1),
                   harness::Table::fmt(b_solo.avg_bw_gbs, 1),
                   harness::Table::fmt(a_solo.avg_bw_gbs + b_solo.avg_bw_gbs, 1),
                   p.paper});
    csv.add_row({p.a, p.b, harness::Table::fmt(pair.total_avg_bw_gbs, 2),
                 harness::Table::fmt(a_solo.avg_bw_gbs, 2),
                 harness::Table::fmt(b_solo.avg_bw_gbs, 2)});
  }
  table.print(std::cout);
  std::cout << "\n(key property: co-run bandwidth < sum of solo bandwidths "
               "-- the shared channel saturates)\n";
  if (args.csv) std::cout << "\n" << csv.to_csv();
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
