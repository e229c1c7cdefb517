// Cross-module integration tests: the plan API end-to-end, plus
// qualitative reproduction checks of the paper's headline findings at
// Tiny scale (the bench binaries reproduce them at full scale). Every
// simulation the checks read comes from two plans built once per
// process, so the trials run in parallel instead of one after another.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/plan.hpp"
#include "wl/registry.hpp"

namespace coperf {
namespace {

using harness::GroupSpec;

harness::RunOptions tiny_options() {
  harness::RunOptions o;
  o.size = wl::SizeClass::Tiny;
  o.sample_window = 50'000;
  return o;
}

/// Shared by the EndToEnd and PaperFindings suites: the Tiny plan
/// (sample window 50'000) and the Small plan (default window), each
/// executed once.
class Plans : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (tiny_.size() != 0) return;  // the other suite built them
    harness::ExperimentPlan tiny{tiny_options()};
    for (const char* w : {"G-PR", "G-CC", "swaptions", "IRSmk", "fotonik3d"})
      tiny.add_solo({w});
    tiny.add_group(GroupSpec::pair("G-PR", "Stream"))
        .add_group(GroupSpec::pair("G-PR", "Bandit"))
        .add_group(GroupSpec::pair("G-CC", "Stream"))
        .add_group(GroupSpec::pair("swaptions", "G-PR"))
        .add_group(GroupSpec::pair("IRSmk", "fotonik3d"));
    tiny.add_scalability({"blackscholes", 4});
    for (const char* w : {"ATIS", "P-SSSP", "blackscholes"})
      tiny.add_scalability({w, 8});
    tiny_ = tiny.execute();

    harness::RunOptions small;
    small.size = wl::SizeClass::Small;
    harness::ExperimentPlan plan{small};
    plan.add_solo({"fotonik3d"})
        .add_group(GroupSpec::pair("fotonik3d", "IRSmk"))
        .add_prefetch({"fotonik3d"})
        .add_prefetch({"G-PR"});
    small_ = plan.execute();
  }

  static harness::RunResult solo(const char* w) { return tiny_.solo({w}); }
  static harness::RunResult pair_fg(const char* fg, const char* bg) {
    return tiny_.group(GroupSpec::pair(fg, bg)).members[0];
  }

  static inline harness::ResultSet tiny_;
  static inline harness::ResultSet small_;
};

using EndToEnd = Plans;
using PaperFindings = Plans;

TEST(Registry, ListsWorkloads) {
  const auto& reg = wl::Registry::instance();
  EXPECT_EQ(reg.applications().size(), 25u);
  EXPECT_EQ(reg.all().size(), 29u);  // +2 minis +2 serving
}

TEST_F(EndToEnd, SoloAndPairEndToEnd) {
  const auto s = solo("G-PR");
  EXPECT_GT(s.cycles, 0u);
  EXPECT_GT(pair_fg("G-PR", "Stream").cycles, s.cycles)
      << "STREAM must interfere with G-PR";
}

TEST_F(EndToEnd, ScalabilitySweepShape) {
  const auto res = tiny_.scalability({"blackscholes", 4});
  ASSERT_EQ(res.speedup.size(), 4u);
  EXPECT_DOUBLE_EQ(res.speedup[0], 1.0);
  EXPECT_GT(res.speedup[3], res.speedup[0]);
}

TEST(EndToEndErrors, InvalidWorkloadThrows) {
  EXPECT_THROW((void)harness::run_solo("nonsense", tiny_options()),
               std::out_of_range);
  harness::ExperimentPlan plan{tiny_options()};
  EXPECT_THROW(plan.add_solo({"nonsense"}), std::out_of_range);
}

// ---------------------------------------------------------------------
// Paper-finding smoke checks (Tiny scale).
// ---------------------------------------------------------------------

TEST_F(PaperFindings, GraphAppsAreVictimsOfStream) {
  // Section VI-B: graph analytics co-running with STREAM suffer badly.
  const double slowdown =
      static_cast<double>(pair_fg("G-CC", "Stream").cycles) /
      static_cast<double>(solo("G-CC").cycles);
  EXPECT_GT(slowdown, 1.25) << "G-CC must be a clear STREAM victim";
}

TEST_F(PaperFindings, GraphAppsDoNotHurtTheirNeighbours) {
  // Section I: graph apps "do not degrade their co-runners".
  const double slowdown =
      static_cast<double>(pair_fg("swaptions", "G-PR").cycles) /
      static_cast<double>(solo("swaptions").cycles);
  EXPECT_LT(slowdown, 1.35);
}

TEST_F(PaperFindings, LlcMpkiRisesUnderStreamForGraphApps) {
  // Fig. 7c: LLC MPKI of Gemini apps grows under STREAM.
  EXPECT_GT(pair_fg("G-PR", "Stream").metrics.llc_mpki,
            solo("G-PR").metrics.llc_mpki * 1.15)
      << "shared-LLC contention must show up in MPKI";
}

TEST_F(PaperFindings, CpiAndPcpRiseUnderStream) {
  // Fig. 7a/7b: CPI and L2 pending-cycle share increase under STREAM.
  const auto s = solo("G-PR");
  const auto fg = pair_fg("G-PR", "Stream");
  EXPECT_GT(fg.metrics.cpi, s.metrics.cpi * 1.1);
  EXPECT_GE(fg.metrics.l2_pcp, s.metrics.l2_pcp * 0.9);
}

TEST_F(PaperFindings, FotonikMpkiStableUnderCorun) {
  // Section VI-E: fotonik3d's LLC MPKI "doesn't change too much" under
  // co-running -- it is a bandwidth victim, not a cache victim. Needs
  // Small inputs: at Tiny scale fotonik3d artificially fits the LLC.
  const auto s = small_.solo({"fotonik3d"});
  const auto fg =
      small_.group(GroupSpec::pair("fotonik3d", "IRSmk")).members[0];
  // Stable = within 35% relative OR within 1.5 MPKI absolute (the
  // prefetch-covered baseline MPKI is small, so tiny absolute shifts
  // can look like large ratios).
  const double rise = fg.metrics.llc_mpki - s.metrics.llc_mpki;
  EXPECT_LT(rise, std::max(s.metrics.llc_mpki * 0.35, 1.5));
  EXPECT_GT(rise, -std::max(s.metrics.llc_mpki * 0.35, 1.5));
}

TEST_F(PaperFindings, PairBandwidthBelowSumOfSolos) {
  // Table III: combined bandwidth < sum of solo bandwidths.
  const auto pair = tiny_.group(GroupSpec::pair("IRSmk", "fotonik3d"));
  EXPECT_LT(pair.total_avg_bw_gbs,
            solo("IRSmk").avg_bw_gbs + solo("fotonik3d").avg_bw_gbs)
      << "the channel must saturate below the sum of solo demands";
}

TEST_F(PaperFindings, BanditHurtsLessThanStream) {
  // Fig. 6: co-running with Bandit is much milder than with STREAM.
  const auto with_bandit = pair_fg("G-PR", "Bandit");
  const auto with_stream = pair_fg("G-PR", "Stream");
  EXPECT_LT(with_bandit.cycles, with_stream.cycles);
  const double bandit_slowdown = static_cast<double>(with_bandit.cycles) /
                                 static_cast<double>(solo("G-PR").cycles);
  EXPECT_LT(bandit_slowdown, 1.45) << "Bandit-level contention is modest";
}

TEST_F(PaperFindings, PrefetchSensitivitySeparatesClasses) {
  // Fig. 4: regular streamers are prefetch-sensitive; irregular graph
  // code is not. Needs Small inputs: at Tiny scale the graph's vertex
  // state fits the LLC, leaving only its (prefetchable) edge streams.
  const auto fot = small_.prefetch({"fotonik3d"});
  const auto gpr = small_.prefetch({"G-PR"});
  EXPECT_LT(fot.speedup_ratio, gpr.speedup_ratio)
      << "fotonik3d must benefit more from prefetchers than G-PR";
  EXPECT_GT(gpr.speedup_ratio, 0.72);
}

TEST_F(PaperFindings, AtisDoesNotScale) {
  EXPECT_LT(tiny_.scalability({"ATIS", 8}).max_speedup(), 2.5)
      << "ATIS must be sync-bound (Table II)";
}

TEST_F(PaperFindings, PSsspScalesPoorly) {
  EXPECT_LT(tiny_.scalability({"P-SSSP", 8}).max_speedup(), 2.6)
      << "P-SSSP must show the paper's <2x scaling";
}

TEST_F(PaperFindings, BlackscholesScalesWell) {
  EXPECT_GT(tiny_.scalability({"blackscholes", 8}).max_speedup(), 5.0);
}

}  // namespace
}  // namespace coperf
