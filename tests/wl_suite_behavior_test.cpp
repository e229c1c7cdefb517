// Per-suite behavioural contrasts the paper reports between frameworks
// and applications -- asserted at Tiny scale so they gate every build.
#include <gtest/gtest.h>

#include "harness/plan.hpp"
#include "wl/registry.hpp"

namespace coperf::wl {
namespace {

harness::RunOptions tiny_opts(unsigned threads = 4) {
  harness::RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = SizeClass::Tiny;
  o.threads = threads;
  o.sample_window = 50'000;
  return o;
}

/// Foreground result of `fg` co-running with `bg` looping beside it.
harness::GroupResult pair(const std::string& fg, const std::string& bg) {
  return harness::run_group(harness::GroupSpec::pair(fg, bg), tiny_opts());
}

/// Prefetchers all-on vs all-off at 4 threads (Fig. 4).
harness::PrefetchSensitivity prefetch_study(const std::string& w) {
  harness::ExperimentPlan plan{tiny_opts()};
  plan.add_prefetch({w});
  return plan.execute().prefetch({w});
}

// ---------------------------------------------------------------------
// Gemini vs. PowerGraph (Section VI-D)
// ---------------------------------------------------------------------

TEST(SuiteBehavior, PowerGraphIsSlowerThanGeminiOnPageRank) {
  // "the performance of PowerGraph is worse than GeminiGraph"
  const auto g = harness::run_solo("G-PR", tiny_opts());
  const auto p = harness::run_solo("P-PR", tiny_opts());
  // Normalize per PageRank iteration (G runs 2 at Tiny, P runs 2).
  EXPECT_GT(p.cycles, g.cycles)
      << "the GAS engine's per-edge overhead must cost real time";
}

TEST(SuiteBehavior, PowerGraphBurnsMoreInstructionsPerEdge) {
  const auto g = harness::run_solo("G-PR", tiny_opts());
  const auto p = harness::run_solo("P-PR", tiny_opts());
  EXPECT_GT(p.stats.instructions, g.stats.instructions)
      << "vertex-program indirection implies more work per edge";
}

TEST(SuiteBehavior, GraphAppsAreNotOffenders) {
  // Fig. 5: graph columns stay near 1.0 even for sensitive foregrounds.
  const auto solo = harness::run_solo("streamcluster", tiny_opts());
  const auto fg = pair("streamcluster", "G-PR").members[0];
  const double slowdown = static_cast<double>(fg.cycles) /
                          static_cast<double>(solo.cycles);
  EXPECT_LT(slowdown, 1.45) << "graph bg must not crush even a BW-bound fg";
}

// ---------------------------------------------------------------------
// CNTK (Section IV-A)
// ---------------------------------------------------------------------

TEST(SuiteBehavior, CifarOutweighsMnist) {
  const auto cifar = harness::run_solo("CIFAR", tiny_opts());
  const auto mnist = harness::run_solo("MNIST", tiny_opts());
  EXPECT_GT(cifar.footprint_bytes, mnist.footprint_bytes);
  EXPECT_GT(cifar.avg_bw_gbs + 0.1, mnist.avg_bw_gbs);
}

TEST(SuiteBehavior, AtisBarrierShareGrowsWithThreads) {
  // Paper: kmp_hyper_barrier_release is 28% of cycles at 2 threads but
  // 80% above 2 -- the share must grow sharply from 2T to 4T+.
  auto share = [](unsigned t) {
    const auto r = harness::run_solo("ATIS", tiny_opts(t));
    return static_cast<double>(r.stats.barrier_wait_cycles) /
           static_cast<double>(r.stats.cycles);
  };
  const double s2 = share(2);
  const double s4 = share(4);
  const double s8 = share(8);
  EXPECT_GT(s4, s2);
  EXPECT_GT(s8, s4);
  EXPECT_GT(s8, 0.4) << "ATIS at 8T must be dominated by synchronization";
}

TEST(SuiteBehavior, LstmIsCacheResident) {
  const auto r = harness::run_solo("LSTM", tiny_opts());
  EXPECT_LT(r.stats.llc_mpki(), 1.0)
      << "LSTM weights must live in the cache hierarchy";
}

// ---------------------------------------------------------------------
// PARSEC / HPC structure
// ---------------------------------------------------------------------

TEST(SuiteBehavior, BlackscholesPricesMatchClosedForm) {
  // The model computes real Black-Scholes prices; spot-check bounds:
  // option value can never exceed spot (call) nor strike (put).
  auto model = Registry::instance().create(
      "blackscholes", AppParams{0, 2, SizeClass::Tiny, 1});
  sim::Machine m{sim::MachineConfig::scaled()};
  sim::AppBinding b;
  b.id = 0;
  b.cores = {0, 1};
  b.sources = model->sources();
  m.add_app(std::move(b));
  m.run();
  EXPECT_EQ(model->verify(), "");
}

TEST(SuiteBehavior, StreamclusterIsPrefetchSensitive) {
  const auto s = prefetch_study("streamcluster");
  EXPECT_LT(s.speedup_ratio, 0.92)
      << "regular point streaming must rely on the streamer";
}

TEST(SuiteBehavior, AmgSerialPhaseLimitsSpeedup) {
  const auto t1 = harness::run_solo("AMG2006", tiny_opts(1)).cycles;
  const auto t8 = harness::run_solo("AMG2006", tiny_opts(8)).cycles;
  const double s8 = static_cast<double>(t1) / static_cast<double>(t8);
  EXPECT_LT(s8, 4.0) << "two single-threaded phases must cap AMG scaling";
  EXPECT_GT(s8, 1.0);
}

TEST(SuiteBehavior, IrsmkMovesManyStreamsPerZone) {
  // 27 coefficient streams + stencil rows: bytes per instruction far
  // above a compute code's.
  const auto irsmk = harness::run_solo("IRSmk", tiny_opts());
  const auto nab = harness::run_solo("nab", tiny_opts());
  const double irsmk_bpi = static_cast<double>(irsmk.stats.bytes_from_mem) /
                           static_cast<double>(irsmk.stats.instructions);
  const double nab_bpi = static_cast<double>(nab.stats.bytes_from_mem) /
                         static_cast<double>(nab.stats.instructions);
  EXPECT_GT(irsmk_bpi, 4 * nab_bpi);
}

// ---------------------------------------------------------------------
// SPEC rate mode
// ---------------------------------------------------------------------

TEST(SuiteBehavior, RateCopiesOwnPrivateData) {
  // Footprint must grow with copy count for rate-mode workloads.
  const AppParams p1{0, 1, SizeClass::Tiny, 1};
  const AppParams p4{0, 4, SizeClass::Tiny, 1};
  auto& reg = Registry::instance();
  EXPECT_GT(reg.create("fotonik3d", p4)->footprint_bytes(),
            2 * reg.create("fotonik3d", p1)->footprint_bytes());
}

TEST(SuiteBehavior, FotonikIsThePrefetchFriendlyOffender) {
  const auto s = prefetch_study("fotonik3d");
  EXPECT_LT(s.speedup_ratio, 0.9);
  const auto r = harness::run_solo("fotonik3d", tiny_opts());
  EXPECT_GT(r.avg_bw_gbs, 8.0);
}

TEST(SuiteBehavior, McfStallsOnPointerChasing) {
  const auto mcf = harness::run_solo("mcf", tiny_opts());
  const auto deeps = harness::run_solo("deepsjeng", tiny_opts());
  EXPECT_GT(mcf.stats.l2_pcp(), deeps.stats.l2_pcp())
      << "mcf's chains must keep more L2-miss cycles pending than "
         "deepsjeng's compute-rich probes";
}

TEST(SuiteBehavior, BanditVsStreamSeverityOrdering) {
  // The paper's central Fig. 6 contrast at Tiny scale, for a non-graph
  // victim too.
  const auto solo = harness::run_solo("streamcluster", tiny_opts());
  const auto vs_bandit = pair("streamcluster", "Bandit").members[0];
  const auto vs_stream = pair("streamcluster", "Stream").members[0];
  EXPECT_GE(vs_stream.cycles, vs_bandit.cycles)
      << "LLC-sweeping Stream must hurt at least as much as Bandit";
  (void)solo;
}

TEST(SuiteBehavior, BackgroundRestartKeepsBgBusy) {
  // A short bg against a long fg must restart many times (Section V:
  // "executed in background infinitely").
  const auto r = pair("G-PR", "Bandit");
  EXPECT_GE(r.runs_completed[1], 1u);
  EXPECT_GT(r.members[1].stats.instructions, 0u);
}

}  // namespace
}  // namespace coperf::wl
