// Fig. 2 (a-f): normalized speedup for 1..8 threads, per suite.
// Regenerates the paper's six speedup panels as per-suite tables.
// One plan holds every sweep; trials shared with other experiments
// (e.g. the 4-thread solos of a matrix) are deduplicated for free.
#include "bench_common.hpp"
#include "harness/report.hpp"
#include "wl/registry.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  const auto args = bench::parse_args(argc, argv, bench::kCsv | bench::kJson);
  bench::print_config(args, "Fig. 2 -- thread scalability, 1..8 threads");

  const char* suites[] = {"PowerGraph", "GeminiGraph", "CNTK",
                          "PARSEC",     "SPEC CPU2017", "HPC"};
  const char* panel[] = {"(a)", "(b)", "(c)", "(d)", "(e)", "(f)"};

  harness::ExperimentPlan plan = args.plan();
  std::vector<std::vector<harness::SweepSpec>> specs(std::size(suites));
  for (std::size_t s = 0; s < std::size(suites); ++s)
    for (const auto* w : wl::Registry::instance().suite(suites[s])) {
      specs[s].push_back(harness::SweepSpec{w->name, 8});
      plan.add_scalability(specs[s].back());
    }
  const harness::ResultSet rs = plan.execute(0, bench::plan_progress());

  std::vector<harness::ScalabilityResult> all;
  for (std::size_t s = 0; s < std::size(suites); ++s) {
    std::cout << "Fig. 2" << panel[s] << " " << suites[s] << "\n";
    std::vector<harness::ScalabilityResult> results;
    for (const auto& spec : specs[s]) results.push_back(rs.scalability(spec));
    print_scalability(std::cout, results);
    std::cout << "\n";
    all.insert(all.end(), results.begin(), results.end());
  }
  if (args.csv) std::cout << harness::report::to_csv(all);
  if (args.json) std::cout << harness::report::to_json(all) << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
