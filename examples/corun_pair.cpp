// Co-run demo: reproduce the paper's core experiment (Section V) for
// one foreground/background pair -- foreground on cores 0-3, background
// looping on cores 4-7, only LLC + memory shared -- and classify the
// relationship at the 1.5x threshold. Both solos and both orderings
// run as one plan.
//
// Arguments: [foreground] [background]
//   e.g. G-CC fotonik3d (the defaults)
#include <exception>
#include <iostream>

#include "harness/classify.hpp"
#include "harness/plan.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  const std::string fg = argc > 1 ? argv[1] : "G-CC";
  const std::string bg = argc > 2 ? argv[2] : "fotonik3d";

  std::cout << "co-running " << fg << " (fg, cores 0-3) with " << bg
            << " (bg, cores 4-7)\n\n";

  const harness::GroupSpec fg_spec = harness::GroupSpec::pair(fg, bg);
  const harness::GroupSpec bg_spec = harness::GroupSpec::pair(bg, fg);
  harness::ExperimentPlan plan;
  plan.add_solo({fg}).add_solo({bg}).add_group(fg_spec).add_group(bg_spec);
  const harness::ResultSet rs = plan.execute();

  const auto fg_solo = rs.solo({fg});
  const auto bg_solo = rs.solo({bg});
  const auto fg_pair = rs.group(fg_spec);
  const auto bg_pair = rs.group(bg_spec);  // other ordering
  const auto& fg_co = fg_pair.members[0];
  const auto& bg_co = bg_pair.members[0];

  const double fg_slowdown =
      static_cast<double>(fg_co.cycles) / static_cast<double>(fg_solo.cycles);
  const double bg_slowdown =
      static_cast<double>(bg_co.cycles) / static_cast<double>(bg_solo.cycles);

  std::cout << fg << ":\n"
            << "  solo   : " << fg_solo.cycles << " cycles, "
            << fg_solo.avg_bw_gbs << " GB/s, LLC MPKI "
            << fg_solo.metrics.llc_mpki << "\n"
            << "  co-run : " << fg_co.cycles << " cycles (" << fg_slowdown
            << "x), " << fg_co.avg_bw_gbs << " GB/s, LLC MPKI "
            << fg_co.metrics.llc_mpki << "\n";
  std::cout << bg << ":\n"
            << "  solo   : " << bg_solo.cycles << " cycles, "
            << bg_solo.avg_bw_gbs << " GB/s\n"
            << "  co-run : " << bg_co.cycles << " cycles (" << bg_slowdown
            << "x)\n\n";

  std::cout << "combined bandwidth: " << fg_pair.total_avg_bw_gbs
            << " GB/s (solo sum "
            << fg_solo.avg_bw_gbs + bg_solo.avg_bw_gbs << " GB/s)\n";

  const auto cls = harness::classify_pair(fg_slowdown, bg_slowdown);
  std::cout << "relationship: " << harness::to_string(cls);
  const auto victim = harness::victim_of(fg, bg, fg_slowdown, bg_slowdown);
  if (!victim.empty()) std::cout << " (victim: " << victim << ")";
  std::cout << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
