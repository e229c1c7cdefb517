// Fig. 5: the full 25x25 co-run heat map -- normalized execution time
// of every foreground application against every background application
// (625 pairs, median of N repeated runs), plus the paper's
// Harmony / Victim-Offender / Both-Victim classification summary.
#include "bench_common.hpp"
#include "harness/report.hpp"
#include "harness/runcache.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  const auto args = bench::parse_args(
      argc, argv, bench::kSubset | bench::kCsv | bench::kJson);
  bench::print_config(args,
                      "Fig. 5 -- 25x25 co-run normalized-runtime heat map");

  harness::MatrixSpec spec{args.subset, args.effective_reps(), {}};
  harness::ExperimentPlan plan = args.plan();
  plan.add_matrix(spec);
  std::cout << "plan: " << plan.trial_count() << " unique trials, "
            << plan.residue_count() << " to simulate\n";
  const harness::ResultSet rs = plan.execute(0, bench::plan_progress());
  const harness::CorunMatrix m = rs.matrix(spec);

  harness::print_heatmap(std::cout, m);

  const auto counts = m.count_classes();
  std::cout << "\npair classes (threshold " << harness::kVictimThreshold
            << "x, unordered pairs incl. self):\n"
            << "  Harmony         : " << counts.harmony << "\n"
            << "  Victim-Offender : " << counts.victim_offender << "\n"
            << "  Both-Victim     : " << counts.both_victim << "\n";

  // The paper's named anchor pairs (Section V-A).
  auto idx = [&](const std::string& w) {
    for (std::size_t i = 0; i < m.size(); ++i)
      if (m.workloads[i] == w) return i;
    return m.size();
  };
  struct Anchor {
    const char* fg;
    const char* bg;
    const char* paper;
  };
  const Anchor anchors[] = {
      {"G-CC", "CIFAR", "1.55"},      {"G-CC", "fotonik3d", "1.98"},
      {"CIFAR", "fotonik3d", "1.52"}, {"fotonik3d", "CIFAR", "1.54"},
      {"P-PR", "fotonik3d", "~1.5"},  {"IRSmk", "fotonik3d", "1.9"},
  };
  std::cout << "\nanchor cells (measured vs. paper):\n";
  for (const auto& a : anchors) {
    const std::size_t f = idx(a.fg), b = idx(a.bg);
    if (f < m.size() && b < m.size())
      std::cout << "  " << a.fg << " + " << a.bg << " bg: "
                << harness::Table::fmt(m.at(f, b)) << "x (paper " << a.paper
                << ")\n";
  }

  if (args.csv) std::cout << "\n" << harness::report::to_csv(m);
  if (args.json) std::cout << "\n" << harness::report::to_json(m) << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
