// Fig. 6 (a, b): normalized speedup of all 25 applications co-running
// with the two mini-benchmarks, Bandit and Stream (each as a 4-thread
// background stressor). Speedup = t_solo / t_corun (lower = worse).
// One plan: a solo spec and two pair groups per application.
#include "bench_common.hpp"
#include "harness/report.hpp"
#include "wl/registry.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  const auto args = bench::parse_args(argc, argv, bench::kSubset | bench::kCsv);
  bench::print_config(args, "Fig. 6 -- co-run with Bandit / Stream");

  auto workloads = wl::Registry::instance().applications();
  if (!args.subset.empty()) {
    std::vector<const wl::WorkloadInfo*> picked;
    for (const auto& name : args.subset)
      picked.push_back(&wl::Registry::instance().at(name));
    workloads = std::move(picked);
  }

  const unsigned reps = args.effective_reps();
  const harness::RunOptions opt = args.run_options();
  auto vs = [&](const std::string& fg, const std::string& bg) {
    return harness::GroupSpec::pair(fg, bg, opt.threads, opt.bg_threads);
  };
  harness::ExperimentPlan plan = args.plan();
  for (const auto* w : workloads) {
    plan.add_solo({w->name, args.threads, reps});
    plan.add_group(vs(w->name, "Bandit"), reps);
    plan.add_group(vs(w->name, "Stream"), reps);
  }
  const harness::ResultSet rs = plan.execute(0, bench::plan_progress());

  harness::Table table{{"suite", "workload", "vs Bandit", "vs Stream"}};
  harness::Table csv{
      {"suite", "workload", "speedup_vs_bandit", "speedup_vs_stream"}};
  double sum_bandit = 0, sum_stream = 0, gem_stream = 0;
  unsigned count = 0, gem_count = 0;
  for (const auto* w : workloads) {
    const double solo =
        static_cast<double>(rs.solo({w->name, args.threads, reps}).cycles);
    const double sb =
        solo / static_cast<double>(
                   rs.group(vs(w->name, "Bandit"), reps).members[0].cycles);
    const double ss =
        solo / static_cast<double>(
                   rs.group(vs(w->name, "Stream"), reps).members[0].cycles);
    table.add_row({w->suite, w->name, harness::Table::fmt(sb),
                   harness::Table::fmt(ss)});
    csv.add_row({w->suite, w->name, harness::Table::fmt(sb, 3),
                 harness::Table::fmt(ss, 3)});
    sum_bandit += sb;
    sum_stream += ss;
    ++count;
    if (w->suite == "GeminiGraph") {
      gem_stream += ss;
      ++gem_count;
    }
  }
  table.print(std::cout);
  std::cout << "\naverages:\n"
            << "  vs Bandit (" << count << " apps)    : "
            << harness::Table::fmt(sum_bandit / count)
            << "  (paper: 0.77-1.0 range over all 25)\n"
            << "  vs Stream (" << count << " apps)    : "
            << harness::Table::fmt(sum_stream / count)
            << "  (paper: ~0.61 over all 25)\n";
  if (gem_count > 0)
    std::cout << "  vs Stream (GeminiGraph) : "
              << harness::Table::fmt(gem_stream / gem_count)
              << "  (paper: ~0.48, i.e. ~2.08x slowdown)\n";
  if (args.csv) std::cout << "\n" << csv.to_csv();
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
