// Tests for the experiment harness: solo/pair runs, classification,
// scalability math, the co-run matrix and its additive composition,
// reporters.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/classify.hpp"
#include "harness/matrix.hpp"
#include "harness/plan.hpp"
#include "harness/prefetch_study.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/scalability.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace coperf::harness {
namespace {

RunOptions tiny_opts(unsigned threads = 4) {
  RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = wl::SizeClass::Tiny;
  o.threads = threads;
  o.sample_window = 50'000;
  return o;
}

TEST(Classify, ThresholdSemantics) {
  EXPECT_EQ(classify_pair(1.0, 1.0), PairClass::Harmony);
  EXPECT_EQ(classify_pair(1.49, 1.49), PairClass::Harmony);
  EXPECT_EQ(classify_pair(1.5, 1.0), PairClass::VictimOffender);
  EXPECT_EQ(classify_pair(1.0, 1.5), PairClass::VictimOffender);
  EXPECT_EQ(classify_pair(1.6, 1.9), PairClass::BothVictim);
}

TEST(Classify, VictimNaming) {
  EXPECT_EQ(victim_of("A", "B", 1.8, 1.1), "A");
  EXPECT_EQ(victim_of("A", "B", 1.1, 1.8), "B");
  EXPECT_EQ(victim_of("A", "B", 1.1, 1.2), "");
  EXPECT_EQ(victim_of("A", "B", 1.8, 1.8), "");
}

TEST(Classify, ToStringNames) {
  EXPECT_STREQ(to_string(PairClass::Harmony), "Harmony");
  EXPECT_STREQ(to_string(PairClass::VictimOffender), "Victim-Offender");
  EXPECT_STREQ(to_string(PairClass::BothVictim), "Both-Victim");
}

TEST(Scalability, ClassificationThresholds) {
  EXPECT_EQ(classify_scalability(1.0), ScalClass::Low);
  EXPECT_EQ(classify_scalability(2.49), ScalClass::Low);
  EXPECT_EQ(classify_scalability(2.5), ScalClass::Medium);
  EXPECT_EQ(classify_scalability(4.99), ScalClass::Medium);
  EXPECT_EQ(classify_scalability(5.0), ScalClass::High);
  EXPECT_EQ(classify_scalability(7.8), ScalClass::High);
}

TEST(Runner, SoloRunProducesSaneResult) {
  const RunResult r = run_solo("Stream", tiny_opts(2));
  EXPECT_EQ(r.workload, "Stream");
  EXPECT_EQ(r.threads, 2u);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.stats.ipc(), 0.0);
}

TEST(Runner, PairRunMeasuresBothSides) {
  const GroupResult r =
      run_group(GroupSpec::pair("Bandit", "Stream"), tiny_opts());
  EXPECT_EQ(r.members[0].workload, "Bandit");
  EXPECT_EQ(r.members[1].workload, "Stream");
  EXPECT_GT(r.members[0].cycles, 0u);
  EXPECT_GT(r.members[1].stats.instructions, 0u);
  EXPECT_GT(r.total_avg_bw_gbs, 0.0);
  // Total bandwidth should be at least each side's own share.
  EXPECT_GE(r.total_avg_bw_gbs + 0.5, r.members[0].avg_bw_gbs);
  EXPECT_GE(r.total_avg_bw_gbs + 0.5, r.members[1].avg_bw_gbs);
}

TEST(Runner, CorunSlowsBandwidthVictim) {
  const RunResult solo = run_solo("Bandit", tiny_opts());
  const GroupResult pair =
      run_group(GroupSpec::pair("Bandit", "Stream"), tiny_opts());
  EXPECT_GT(pair.members[0].cycles, solo.cycles)
      << "a bandwidth victim must slow down next to STREAM";
}

TEST(Runner, FriendlyBackgroundBarelyHurts) {
  const RunResult solo = run_solo("Bandit", tiny_opts());
  const GroupResult pair =
      run_group(GroupSpec::pair("Bandit", "swaptions"), tiny_opts());
  const double slowdown = static_cast<double>(pair.members[0].cycles) /
                          static_cast<double>(solo.cycles);
  EXPECT_LT(slowdown, 1.2) << "swaptions must be a harmless neighbour";
}

TEST(Runner, BgThreadPlacementRespected) {
  RunOptions o = tiny_opts(4);
  o.bg_threads = 4;
  const GroupResult r = run_group(
      GroupSpec::pair("Stream", "Bandit", o.threads, o.bg_threads), o);
  EXPECT_GT(r.runs_completed[1] + r.members[1].stats.instructions, 0u);
  // Over-subscription must be rejected.
  o.threads = 6;
  EXPECT_THROW(
      run_group(GroupSpec::pair("Stream", "Bandit", o.threads, o.bg_threads),
                o),
      std::invalid_argument);
}

TEST(PrefetchStudy, StreamIsSensitiveBanditIsNot) {
  ExperimentPlan plan{tiny_opts()};
  plan.add_prefetch({"Stream"}).add_prefetch({"Bandit"});
  const ResultSet rs = plan.execute();
  const auto stream = rs.prefetch({"Stream"});
  const auto bandit = rs.prefetch({"Bandit"});
  EXPECT_LT(stream.speedup_ratio, 0.95)
      << "STREAM must slow down without prefetchers";
  EXPECT_GT(bandit.speedup_ratio, 0.95)
      << "Bandit must be insensitive to prefetchers";
  EXPECT_LE(bandit.speedup_ratio, 1.1);
}

TEST(PrefetchStudy, AblationTogglesIndividually) {
  // Needs Small inputs: Tiny STREAM arrays partially fit the LLC and
  // over-fetching effects dominate the streamer's benefit.
  RunOptions o = tiny_opts(2);
  o.size = wl::SizeClass::Small;
  // Each ratio is t(all on) / t(mask), one solo run per mask.
  const auto cycles_with = [&](sim::PrefetchMask mask) {
    RunOptions m = o;
    m.machine.prefetch = mask;
    return static_cast<double>(run_solo("Stream", m).cycles);
  };
  const double on = cycles_with(sim::PrefetchMask::all_on());
  sim::PrefetchMask no_stream = sim::PrefetchMask::all_on();
  no_stream.l2_stream = false;
  sim::PrefetchMask no_adjacent = sim::PrefetchMask::all_on();
  no_adjacent.l2_adjacent = false;
  const double no_l2_stream = on / cycles_with(no_stream);
  const double no_l2_adjacent = on / cycles_with(no_adjacent);
  const double all_off = on / cycles_with(sim::PrefetchMask::all_off());
  // Disabling the streamer must matter more than the adjacent-line
  // prefetcher for a pure sequential kernel.
  EXPECT_LT(no_l2_stream, no_l2_adjacent + 0.05);
  EXPECT_LE(all_off, no_l2_stream + 0.05);
}

TEST(Matrix, SubsetSweepAndClasses) {
  const MatrixSpec spec{{"Bandit", "swaptions"}, 1, {}};
  ExperimentPlan plan{tiny_opts()};
  plan.add_matrix(spec);
  const CorunMatrix m = plan.execute().matrix(spec);
  ASSERT_EQ(m.size(), 2u);
  // Diagonal and off-diagonal values are defined and >= ~1.
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_GT(m.at(i, j), 0.8) << i << "," << j;
  const auto counts = m.count_classes();
  EXPECT_EQ(counts.harmony + counts.victim_offender + counts.both_victim, 3u);
}

TEST(Matrix, AtRejectsOutOfRangeIndices) {
  CorunMatrix m;
  m.workloads = {"a", "b"};
  m.solo_cycles = {1, 1};
  m.normalized = {{1.0, 1.1}, {1.2, 1.0}};
  EXPECT_DOUBLE_EQ(m.at(1, 0), 1.2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

/// Random slowdown matrix with entries in [1.0, 2.5) -- a co-runner
/// never speeds the foreground up, like every matrix the harness and
/// the predictor produce.
CorunMatrix random_matrix(std::size_t n, util::SplitMix64& rng) {
  CorunMatrix m;
  for (std::size_t i = 0; i < n; ++i)
    m.workloads.push_back("wl" + std::to_string(i));
  m.solo_cycles.assign(n, 1'000'000);
  m.normalized.assign(n, std::vector<double>(n, 1.0));
  for (auto& row : m.normalized)
    for (double& cell : row) cell = 1.0 + 1.5 * rng.uniform();
  return m;
}

TEST(Matrix, CorunSlowdownWithOneCoRunnerIsTheEntry) {
  util::SplitMix64 rng{13};
  for (int trial = 0; trial < 50; ++trial) {
    const CorunMatrix m = random_matrix(5, rng);
    const std::size_t a = rng.below(5), b = rng.below(5);
    EXPECT_NEAR(corun_slowdown(m, a, {b}), m.at(a, b), 1e-12);
  }
}

TEST(Matrix, CorunSlowdownAloneIsOne) {
  util::SplitMix64 rng{5};
  const CorunMatrix m = random_matrix(4, rng);
  for (std::size_t a = 0; a < m.size(); ++a)
    EXPECT_DOUBLE_EQ(corun_slowdown(m, a, {}), 1.0);
}

TEST(Matrix, CorunSlowdownGrowsWithResidents) {
  // Entries >= 1 add non-negative excess, so each added co-runner can
  // only raise the slowdown.
  util::SplitMix64 rng{17};
  for (int trial = 0; trial < 20; ++trial) {
    const CorunMatrix m = random_matrix(6, rng);
    std::vector<std::size_t> others;
    double prev = corun_slowdown(m, 0, others);
    for (std::size_t extra = 1; extra < 6; ++extra) {
      others.push_back(extra);
      const double s = corun_slowdown(m, 0, others);
      EXPECT_GE(s, prev);
      prev = s;
    }
  }
}

TEST(Matrix, CorunSlowdownClampsAtOne) {
  // Entries below 1 (a co-runner that measured faster than solo) sum to
  // a negative excess; the composition never reports a speedup.
  CorunMatrix m;
  m.workloads = {"a", "b", "c"};
  m.solo_cycles = {1, 1, 1};
  m.normalized = {{1.0, 0.7, 0.8}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}};
  EXPECT_DOUBLE_EQ(corun_slowdown(m, 0, {1}), 1.0);
  EXPECT_DOUBLE_EQ(corun_slowdown(m, 0, {1, 2}), 1.0);
  // Below the clamp, an entry under 1 offsets another co-runner's excess.
  m.normalized[0][0] = 1.5;
  EXPECT_NEAR(corun_slowdown(m, 0, {0, 1}), 1.2, 1e-12);
}

TEST(Report, TableFormatsAndCsv) {
  Table t{{"a", "b"}};
  t.add_row({"x", Table::fmt(1.2345, 2)});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1.23"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,b\nx,1.23\n");
}

TEST(Report, HeatmapAndCsvCoverAllCells) {
  CorunMatrix m;
  m.workloads = {"A", "B"};
  m.solo_cycles = {100, 100};
  m.normalized = {{1.0, 1.5}, {2.0, 1.1}};
  std::ostringstream os;
  print_heatmap(os, m);
  EXPECT_NE(os.str().find("1.50"), std::string::npos);
  const std::string csv = report::to_csv(m);
  EXPECT_NE(csv.find("A,B,1.5000"), std::string::npos);
  EXPECT_NE(csv.find("B,A,2.0000"), std::string::npos);
}

// Regression: report::to_json used to pass \r and other control bytes
// through raw, so a region name holding one produced invalid JSON.
TEST(Report, JsonEscapesControlCharactersInNames) {
  const std::string name = "phase\r1\x01\"end\"";
  RunResult r;
  r.workload = "w\tx";
  r.regions.push_back({name, {}});
  const json::Value doc = json::parse(report::to_json(r));
  EXPECT_EQ(doc.at("workload").str(), "w\tx");
  ASSERT_EQ(doc.at("regions").arr().size(), 1u);
  EXPECT_EQ(doc.at("regions").arr()[0].at("region").str(), name);
}

}  // namespace
}  // namespace coperf::harness
