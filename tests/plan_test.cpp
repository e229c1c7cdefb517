// Tests for the plan-based experiment API (harness/plan.hpp): trial
// expansion, structural + run-cache dedup, parallel execution with
// progress, spec-addressable results, and the uniform report layer.
#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/plan.hpp"
#include "harness/report.hpp"
#include "harness/runcache.hpp"
#include "median_reference.hpp"
#include "obs/metrics.hpp"
#include "result_equality.hpp"

namespace coperf::harness {
namespace {

RunOptions tiny_opts(unsigned threads = 4) {
  RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = wl::SizeClass::Tiny;
  o.threads = threads;
  o.seed = 21;
  return o;
}

/// The acceptance scenario: a plan holding a co-run matrix plus the
/// predictor's solo profiles must simulate each unique trial exactly
/// once -- the solos are structurally deduplicated against the
/// matrix's baselines, and a re-execution is served entirely from the
/// run cache.
TEST(Plan, MatrixPlusPredictorSolosSimulateEachTrialOnce) {
  auto& cache = RunCache::instance();
  // Park the disk layer (CI sets COPERF_RUN_CACHE_DIR): the hit/miss
  // accounting below must see exactly this process' simulations.
  const std::string saved_disk = cache.disk_dir();
  cache.set_disk_dir("");
  cache.clear();
  cache.reset_stats();

  const std::vector<std::string> subset = {"Bandit", "swaptions"};
  const unsigned reps = 2;
  ExperimentPlan plan{tiny_opts()};
  const MatrixSpec fig5{subset, reps, {}};
  plan.add_matrix(fig5);
  // The predictor's solo profiles: identical trials, deduped to zero
  // new work.
  for (const auto& w : subset) plan.add_solo({w, 4, reps});

  // 2 workloads x 2 seeds solo + 2x2 pairs x 2 seeds = 4 + 8 trials.
  EXPECT_EQ(plan.trial_count(), 12u);
  EXPECT_EQ(plan.residue_count(), 12u);

  const ResultSet rs = plan.execute();
  const auto after = cache.stats();
  EXPECT_EQ(after.misses, 12u) << "each unique trial simulates exactly once";
  EXPECT_EQ(after.hits, 0u) << "no trial may be simulated or fetched twice";
  EXPECT_EQ(rs.size(), 12u);
  EXPECT_EQ(plan.residue_count(), 0u);

  // Same plan again: everything is served from the cache.
  const ResultSet warm = plan.execute();
  const auto warm_stats = cache.stats();
  EXPECT_EQ(warm_stats.misses, 12u) << "warm execution must not re-simulate";
  EXPECT_EQ(warm_stats.hits, 12u);

  const CorunMatrix cold_m = rs.matrix(fig5);
  const CorunMatrix warm_m = warm.matrix(fig5);
  for (std::size_t i = 0; i < cold_m.size(); ++i)
    for (std::size_t j = 0; j < cold_m.size(); ++j)
      EXPECT_EQ(cold_m.at(i, j), warm_m.at(i, j));
  cache.set_disk_dir(saved_disk);
}

TEST(Plan, MatrixMatchesDirectRunnerCalls) {
  const RunOptions opt = tiny_opts();
  const std::vector<std::string> subset = {"Bandit", "swaptions"};
  const MatrixSpec spec{subset, 1, {}};
  ExperimentPlan plan{opt};
  plan.add_matrix(spec);
  const CorunMatrix m = plan.execute().matrix(spec);

  ASSERT_EQ(m.size(), 2u);
  for (std::size_t fg = 0; fg < 2; ++fg) {
    const sim::Cycle solo = run_solo(subset[fg], opt).cycles;
    EXPECT_EQ(m.solo_cycles[fg], solo);
    for (std::size_t bg = 0; bg < 2; ++bg) {
      const GroupResult pair =
          run_group(GroupSpec::pair(subset[fg], subset[bg]), opt);
      EXPECT_DOUBLE_EQ(m.at(fg, bg),
                       static_cast<double>(pair.members[0].cycles) /
                           static_cast<double>(solo));
    }
  }
}

TEST(Plan, PrecomputedSoloCyclesSkipBaselineTrials) {
  const RunOptions opt = tiny_opts();
  const std::vector<std::string> subset = {"Bandit", "swaptions"};
  MatrixSpec spec{subset, 1, {100, 200}};
  ExperimentPlan plan{opt};
  plan.add_matrix(spec);
  EXPECT_EQ(plan.trial_count(), 4u) << "pairs only, no solo baselines";
  const CorunMatrix m = plan.execute().matrix(spec);
  EXPECT_EQ(m.solo_cycles[0], 100u);
  EXPECT_EQ(m.solo_cycles[1], 200u);

  MatrixSpec bad{subset, 1, {1, 2, 3}};
  ExperimentPlan p2{opt};
  EXPECT_THROW(p2.add_matrix(bad), std::invalid_argument);
}

TEST(Plan, SoloMedianMatchesMedianOfRuns) {
  const RunOptions opt = tiny_opts(2);
  ExperimentPlan plan{opt};
  plan.add_solo({"Bandit", 2, 3});
  const ResultSet rs = plan.execute();
  EXPECT_EQ(rs.solo({"Bandit", 2, 3}).cycles,
            median_of_runs(GroupSpec::solo("Bandit", 2), opt, 3)
                .members[0]
                .cycles);
}

TEST(Plan, ScalabilityAndPrefetchAssembleFromTrials) {
  const RunOptions opt = tiny_opts();
  ExperimentPlan plan{opt};
  const SweepSpec sweep{"Bandit", 2};
  const PrefetchSpec pf{"Stream", 4};
  plan.add_scalability(sweep);
  plan.add_prefetch(pf);
  const ResultSet rs = plan.execute();

  const ScalabilityResult s = rs.scalability(sweep);
  ASSERT_EQ(s.threads.size(), 2u);
  EXPECT_DOUBLE_EQ(s.speedup[0], 1.0);
  for (unsigned t = 1; t <= 2; ++t) {
    RunOptions o = opt;
    o.threads = t;
    EXPECT_EQ(s.cycles[t - 1], run_solo("Bandit", o).cycles) << t;
  }

  const PrefetchSensitivity p = rs.prefetch(pf);
  EXPECT_EQ(p.workload, "Stream");
  EXPECT_GT(p.cycles_on, 0u);
  EXPECT_GT(p.cycles_off, 0u);
  EXPECT_LT(p.speedup_ratio, 1.0)
      << "STREAM must benefit from prefetchers on Tiny too";

  RunOptions on = opt;
  on.machine.prefetch = sim::PrefetchMask::all_on();
  RunOptions off = opt;
  off.machine.prefetch = sim::PrefetchMask::all_off();
  EXPECT_EQ(p.cycles_on, run_solo("Stream", on).cycles);
  EXPECT_EQ(p.cycles_off, run_solo("Stream", off).cycles);
}

TEST(Plan, GroupSpecsAreAddressableAndMedianed) {
  const RunOptions opt = tiny_opts();
  GroupSpec trio;
  trio.members = {MemberSpec{"Bandit", 2, {}, false},
                  MemberSpec{"swaptions", 2, {}, false},
                  MemberSpec{"Stream", 4, {}, true}};
  ExperimentPlan plan{opt};
  plan.add_group(trio, 3);
  EXPECT_EQ(plan.trial_count(), 3u);
  const ResultSet rs = plan.execute();
  const GroupResult g = rs.group(trio, 3);
  ASSERT_EQ(g.members.size(), 3u);
  EXPECT_EQ(g.members[0].cycles,
            median_of_runs(trio, opt, 3).members[0].cycles);
}

TEST(Plan, ProgressCallbackSeesEveryTrial) {
  ExperimentPlan plan{tiny_opts()};
  plan.add_solo({"Bandit", 2, 2});
  plan.add_solo({"swaptions", 2, 1});
  std::size_t calls = 0, last_done = 0, reported_total = 0;
  plan.execute(2, [&](std::size_t done, std::size_t total, const Trial& t) {
    ++calls;
    last_done = done;
    reported_total = total;
    EXPECT_FALSE(t.key.empty());
    EXPECT_FALSE(t.group.members.empty());
  });
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(last_done, 3u);
  EXPECT_EQ(reported_total, 3u);
}

TEST(Plan, LanesGaugeMatchesParticipants) {
  // plan.lanes counts parallel_for's participants: the host_threads
  // cap, but never more lanes than trials.
  ExperimentPlan plan{tiny_opts()};
  plan.add_solo({"Bandit", 2, 2});
  plan.add_solo({"swaptions", 2, 1});
  ASSERT_EQ(plan.trial_count(), 3u);
  obs::Gauge& lanes = obs::Registry::instance().gauge("plan.lanes");
  (void)plan.execute(8);
  EXPECT_EQ(lanes.value(), 3.0);
  (void)plan.execute(2);
  EXPECT_EQ(lanes.value(), 2.0);
}

TEST(Plan, ResultSetThrowsForSpecsOutsideThePlan) {
  ExperimentPlan plan{tiny_opts()};
  plan.add_solo({"Bandit", 2, 1});
  const ResultSet rs = plan.execute();
  EXPECT_NO_THROW((void)rs.solo({"Bandit", 2, 1}));
  EXPECT_THROW((void)rs.solo({"Stream", 2, 1}), std::out_of_range);
  EXPECT_THROW((void)rs.scalability({"Bandit", 4}), std::out_of_range);
  EXPECT_THROW((void)rs.matrix(MatrixSpec{{"Bandit"}, 1, {}}),
               std::out_of_range);
}

TEST(Plan, UnknownWorkloadIsRejectedAtAddTime) {
  ExperimentPlan plan{tiny_opts()};
  EXPECT_THROW(plan.add_matrix(MatrixSpec{{"nonsense"}, 1, {}}),
               std::out_of_range);
  EXPECT_THROW(plan.add_solo({"nonsense", 4, 1}), std::out_of_range);
  EXPECT_THROW(plan.add_scalability({"nonsense", 2}), std::out_of_range);
  EXPECT_EQ(plan.trial_count(), 0u) << "failed adds must not leave trials";
}

// ---------------------------------------------------------------------
// Uniform report layer.

TEST(Report, RunAndGroupJsonCoverTheResult) {
  const RunOptions opt = tiny_opts(2);
  const RunResult r = run_solo("Bandit", opt);
  const std::string j = report::to_json(r);
  EXPECT_NE(j.find("\"workload\": \"Bandit\""), std::string::npos);
  EXPECT_NE(j.find("\"cycles\": " + std::to_string(r.cycles)),
            std::string::npos);
  EXPECT_NE(j.find("\"metrics\""), std::string::npos);

  const GroupResult g =
      run_group(GroupSpec::pair("Bandit", "Stream", 2, 2), opt);
  const std::string gj = report::to_json(g);
  EXPECT_NE(gj.find("\"members\""), std::string::npos);
  EXPECT_NE(gj.find("\"Stream\""), std::string::npos);
  EXPECT_NE(gj.find("\"runs_completed\""), std::string::npos);
}

TEST(Report, GroupJsonRoundTrips) {
  RunResult fg;
  fg.workload = "kv \"serve\"";
  fg.threads = 3;
  fg.cycles = 123'456'789'012'345ull;
  fg.seconds = 0.1;
  for (std::size_t i = 0; i < sim::kCoreStatFields.size(); ++i)
    fg.stats.*sim::kCoreStatFields[i].member = (i + 1) * 1'000'000'007ull;
  fg.stats.cycles = ~std::uint64_t{0};  // 64-bit counters reload exactly
  fg.avg_bw_gbs = 1.0 / 3.0;
  fg.footprint_bytes = std::size_t{1} << 40;
  fg.latency.record(3);
  fg.latency.record(4096);
  fg.latency.record(4096);
  sim::CoreStats hot;
  hot.cycles = 77;
  hot.l2_misses = 5;
  fg.regions = {{"hot \"loop\"\tstage\n2", hot}, {"<untagged>", {}}};
  RunResult bg;
  bg.workload = "Stream";
  bg.threads = 1;
  bg.hit_cycle_limit = true;

  GroupResult g;
  g.members = {fg, bg};
  g.runs_completed = {0, 7};
  g.total_avg_bw_gbs = 2.0 / 7.0;
  g.finish_cycle = 999;
  g.hit_cycle_limit = true;

  const std::string doc = report::to_json(g);
  expect_group_eq(report::group_from_json(doc), g);
  EXPECT_EQ(report::to_json(report::group_from_json(doc)), doc);

  // Latency buckets that do not sum to count are rejected.
  std::string bad = doc;
  const std::string count = "\"latency\": {\"count\": 3,";
  ASSERT_NE(bad.find(count), std::string::npos);
  bad.replace(bad.find(count), count.size(), "\"latency\": {\"count\": 4,");
  EXPECT_THROW(report::group_from_json(bad), std::runtime_error);
  // So are truncated documents and documents missing a field.
  EXPECT_THROW(report::group_from_json(doc.substr(0, doc.size() / 2)),
               std::runtime_error);
  std::string missing = doc;
  missing.replace(missing.find("\"finish_cycle\""), 14, "\"finish_cyclX\"");
  EXPECT_THROW(report::group_from_json(missing), std::runtime_error);
}

TEST(Report, MatrixJsonAndCsvAgreeWithAccessors) {
  CorunMatrix m;
  m.workloads = {"A", "B"};
  m.solo_cycles = {100, 200};
  m.normalized = {{1.0, 1.5}, {2.0, 1.1}};
  const std::string j = report::to_json(m);
  EXPECT_NE(j.find("\"workloads\": [\"A\", \"B\"]"), std::string::npos);
  EXPECT_NE(j.find("1.5"), std::string::npos);
  EXPECT_NE(j.find("\"classes\""), std::string::npos);
  const std::string c = report::to_csv(m);
  EXPECT_NE(c.find("A,B,1.5000"), std::string::npos);
  EXPECT_EQ(c.rfind("foreground,background,normalized_runtime\n", 0), 0u);
}

// CSV fields holding commas or quotes are RFC-4180-quoted, so a
// workload name cannot shift columns.
TEST(Report, CsvQuotesNameFields) {
  CorunMatrix m;
  m.workloads = {"a,b", "c\"d"};
  m.solo_cycles = {1, 1};
  m.normalized = {{1.0, 1.5}, {2.0, 1.0}};
  const std::string mcsv = report::to_csv(m);
  EXPECT_NE(mcsv.find("\"a,b\",\"c\"\"d\",1.5000"), std::string::npos);

  Table t{{"name", "value"}};
  t.add_row({"x,y", "1"});
  EXPECT_NE(t.to_csv().find("\"x,y\",1"), std::string::npos);
}

TEST(Report, ScalabilityAndPrefetchEmitters) {
  ScalabilityResult s;
  s.workload = "W";
  s.threads = {1, 2};
  s.cycles = {100, 60};
  s.speedup = {1.0, 100.0 / 60.0};
  s.bw_gbs = {1.0, 2.0};
  s.cls = ScalClass::Low;
  EXPECT_NE(report::to_json(s).find("\"class\": \"Low\""), std::string::npos);
  EXPECT_NE(report::to_csv(std::vector{s}).find("W,2,60"), std::string::npos);

  PrefetchSensitivity p;
  p.workload = "W";
  p.cycles_on = 90;
  p.cycles_off = 100;
  p.speedup_ratio = 0.9;
  EXPECT_NE(report::to_json(p).find("\"speedup_ratio\": 0.9"),
            std::string::npos);
  EXPECT_NE(report::to_csv(std::vector{p}).find("W,90,100"),
            std::string::npos);
}

}  // namespace
}  // namespace coperf::harness
