// Table II: thread-scalability characterization (Low / Medium / High)
// for all 25 applications, from the measured S(8). Shares its sweep
// trials with fig2 through the run cache.
#include <map>

#include "bench_common.hpp"
#include "harness/report.hpp"
#include "wl/registry.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  const auto args = bench::parse_args(argc, argv, bench::kCsv | bench::kJson);
  bench::print_config(args, "Table II -- scalability classes");

  const char* suites[] = {"PowerGraph", "GeminiGraph", "CNTK",
                          "PARSEC",     "SPEC CPU2017", "HPC"};

  harness::ExperimentPlan plan = args.plan();
  for (const char* suite : suites)
    for (const auto* w : wl::Registry::instance().suite(suite))
      plan.add_scalability({w->name, 8});
  const harness::ResultSet rs = plan.execute(0, bench::plan_progress());

  harness::Table table{{"suite", "Low", "Medium", "High"}};
  std::string csv = "suite,workload,s8,class\n";
  std::vector<harness::ScalabilityResult> all;
  for (const char* suite : suites) {
    std::map<harness::ScalClass, std::string> buckets;
    for (const auto* w : wl::Registry::instance().suite(suite)) {
      const auto res = rs.scalability({w->name, 8});
      std::string& bucket = buckets[res.cls];
      if (!bucket.empty()) bucket += ", ";
      bucket += res.workload;
      csv += std::string{suite} + "," + res.workload + "," +
             harness::Table::fmt(res.max_speedup()) + "," +
             harness::to_string(res.cls) + "\n";
      all.push_back(res);
    }
    auto cell = [&](harness::ScalClass c) {
      auto it = buckets.find(c);
      return it == buckets.end() ? std::string{"-"} : it->second;
    };
    table.add_row({suite, cell(harness::ScalClass::Low),
                   cell(harness::ScalClass::Medium),
                   cell(harness::ScalClass::High)});
  }
  table.print(std::cout);
  if (args.csv) std::cout << "\n" << csv;
  if (args.json) std::cout << "\n" << harness::report::to_json(all) << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
