// Group-truth tests (harness/grouptruth.hpp): the pairwise projection
// matches the plan-built matrix, every unique group simulates exactly
// once by RunCache counts, a warm COPERF_RUN_CACHE_DIR-style disk
// layer re-simulates zero group-truth trials on the second build,
// fallback accounting above the measured arity, and the cluster
// simulator running on measured group truth with a zero-regret
// group-truth oracle.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "cluster/cluster.hpp"
#include "harness/grouptruth.hpp"
#include "harness/matrix.hpp"
#include "harness/plan.hpp"
#include "harness/runcache.hpp"

namespace coperf::harness {
namespace {

RunOptions tiny_opts() {
  RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = wl::SizeClass::Tiny;
  o.seed = 33;
  return o;
}

GroupTruth::Config tiny_config(std::vector<std::string> workloads,
                               unsigned max_arity = 3, unsigned reps = 1) {
  GroupTruth::Config cfg;
  cfg.workloads = std::move(workloads);
  cfg.opt = tiny_opts();
  cfg.member_threads = 2;
  cfg.reps = reps;
  cfg.max_arity = max_arity;
  return cfg;
}

/// Parks the disk layer and clears stats for exact hit/miss accounting
/// (CI sets COPERF_RUN_CACHE_DIR); restores on destruction.
struct CacheSandbox {
  CacheSandbox() : saved(RunCache::instance().disk_dir()) {
    RunCache::instance().set_disk_dir("");
    RunCache::instance().clear();
    RunCache::instance().reset_stats();
  }
  ~CacheSandbox() { RunCache::instance().set_disk_dir(saved); }
  std::string saved;
};

TEST(GroupTruth, ValidatesItsConfig) {
  EXPECT_THROW(GroupTruth{tiny_config({})}, std::invalid_argument);
  EXPECT_THROW(GroupTruth{tiny_config({"nonsense"})}, std::out_of_range);
  auto bad_arity = tiny_config({"Bandit"});
  bad_arity.max_arity = 1;
  EXPECT_THROW(GroupTruth{bad_arity}, std::invalid_argument);
  auto no_reps = tiny_config({"Bandit"});
  no_reps.reps = 0;
  EXPECT_THROW(GroupTruth{no_reps}, std::invalid_argument);
  auto too_wide = tiny_config({"Bandit"});
  too_wide.max_arity = 3;
  too_wide.member_threads = 4;  // 12 cores on an 8-core machine
  EXPECT_THROW(GroupTruth{too_wide}, std::invalid_argument);

  GroupTruth ok{tiny_config({"Bandit", "swaptions"})};
  EXPECT_EQ(ok.size(), 2u);
  EXPECT_THROW((void)ok.slowdown(9, {}), std::out_of_range);
  EXPECT_THROW((void)ok.solo(9), std::out_of_range);
  EXPECT_THROW(ok.prefetch({{0}}), std::invalid_argument);  // < 2 residents
  EXPECT_THROW(ok.prefetch({{0, 0, 1, 1}}), std::invalid_argument);  // > arity
}

TEST(GroupTruth, PairwiseProjectionMatchesThePlanMatrix) {
  CacheSandbox sandbox;
  const std::vector<std::string> subset = {"Bandit", "swaptions"};
  GroupTruth truth{tiny_config(subset, /*max_arity=*/2)};
  const CorunMatrix& proj = truth.pairwise();

  // The reference matrix through the plan API at the same member
  // geometry (2 fg + 2 bg threads).
  RunOptions mopt = tiny_opts();
  mopt.threads = 2;
  mopt.bg_threads = 2;
  ExperimentPlan plan{mopt};
  const MatrixSpec spec{subset, 1, {}};
  plan.add_matrix(spec);
  const CorunMatrix direct = plan.execute().matrix(spec);

  ASSERT_EQ(proj.size(), direct.size());
  for (std::size_t fg = 0; fg < proj.size(); ++fg) {
    EXPECT_EQ(proj.solo_cycles[fg], direct.solo_cycles[fg]);
    for (std::size_t bg = 0; bg < proj.size(); ++bg) {
      EXPECT_DOUBLE_EQ(proj.at(fg, bg), direct.at(fg, bg));
      // slowdown(fg, {bg}) IS the matrix entry -- the 2-resident
      // projection, by definition.
      EXPECT_DOUBLE_EQ(truth.slowdown(fg, {bg}), proj.at(fg, bg));
    }
  }
  EXPECT_EQ(truth.fallbacks(), 0u);
  EXPECT_DOUBLE_EQ(truth.slowdown(0, {}), 1.0) << "solo slowdown is 1";
}

// The tentpole accounting criterion: prefetching every <= 3-resident
// multiset simulates each unique group exactly once (RunCache miss
// counts), and a second GroupTruth over a warm disk layer -- the
// COPERF_RUN_CACHE_DIR path CI exercises -- re-simulates ZERO
// group-truth trials.
TEST(GroupTruth, EveryGroupSimulatesOnceAndWarmDiskRunsResimulateNothing) {
  CacheSandbox sandbox;
  RunCache& cache = RunCache::instance();
  const auto disk =
      std::filesystem::temp_directory_path() /
      ("coperf-grouptruth-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(disk);
  cache.set_disk_dir(disk.string());

  const std::vector<std::string> subset = {"Bandit", "swaptions"};
  // 2 types, arity 3: 2 solos + 4 pair trials ((a|a),(a|b),(b|a),(b|b))
  // + 6 trio trials ((a|aa),(a|ab),(a|bb),(b|aa),(b|ab),(b|bb)) = 12.
  constexpr std::uint64_t kUniqueTrials = 12;
  {
    GroupTruth cold{tiny_config(subset, /*max_arity=*/3)};
    const auto stats = cold.prefetch_all(3);
    EXPECT_EQ(stats.trials, kUniqueTrials);
    EXPECT_EQ(stats.residue, kUniqueTrials);
    const auto after = cache.stats();
    EXPECT_EQ(after.misses, kUniqueTrials)
        << "each unique group must simulate exactly once";
    EXPECT_EQ(after.hits, 0u);
    EXPECT_EQ(cold.measured_trials(), 10u);  // 4 pairs + 6 trios
    EXPECT_EQ(cold.observations().size(), 10u);
    EXPECT_EQ(cold.fallbacks(), 0u);
    EXPECT_EQ(cold.truncated_trials(), 0u)
        << "Tiny groups must finish inside the cycle limit";
  }

  // Second build, fresh process simulated: in-memory cache dropped,
  // disk layer warm.
  cache.clear();
  cache.reset_stats();
  {
    GroupTruth warm{tiny_config(subset, /*max_arity=*/3)};
    const auto stats = warm.prefetch_all(3);
    EXPECT_EQ(stats.residue, 0u) << "warm disk layer must serve every trial";
    const auto after = cache.stats();
    EXPECT_EQ(after.misses, 0u)
        << "the warm COPERF_RUN_CACHE_DIR path must re-simulate zero "
           "group-truth trials";
    EXPECT_EQ(after.disk_hits, kUniqueTrials);
    EXPECT_GT(warm.slowdown(0, {0, 1}), 0.0);
  }

  cache.set_disk_dir("");
  std::filesystem::remove_all(disk);
}

TEST(GroupTruth, GroupsAboveTheMeasuredArityFallBackToComposition) {
  CacheSandbox sandbox;
  const std::vector<std::string> subset = {"Bandit", "swaptions"};
  GroupTruth truth{tiny_config(subset, /*max_arity=*/2)};
  const CorunMatrix proj = truth.pairwise();
  const auto misses_before = RunCache::instance().stats().misses;

  const double composed = truth.slowdown(0, {0, 1});
  EXPECT_EQ(truth.fallbacks(), 1u);
  EXPECT_DOUBLE_EQ(composed, corun_slowdown(proj, 0, {0, 1}))
      << "above max_arity the answer is the additive composition of the "
         "pairwise projection";
  EXPECT_EQ(RunCache::instance().stats().misses, misses_before)
      << "a fallback must not simulate anything";
}

// End to end on measured truth: a 3-slot cluster billed at measured
// 3-resident groups, zero pairwise fallbacks, and the group-truth
// oracle with zero decision regret by construction.
TEST(GroupTruth, PrefetchAllIsPoolSizeInvariant) {
  // Every trial simulates an isolated Machine, so the truth table must
  // be BIT-identical no matter how many host lanes sharded the build.
  // Build the Tiny trio table serially, then again across a worker
  // pool, clearing the run cache in between so both actually simulate.
  CacheSandbox sandbox;
  auto build = [](unsigned host_threads) {
    RunCache::instance().clear();
    RunCache::instance().reset_stats();
    auto cfg = tiny_config({"Bandit", "swaptions", "Stream"});
    cfg.host_threads = host_threads;
    GroupTruth truth{cfg};
    truth.prefetch_all(3);
    return truth.observations();
  };
  const auto serial = build(1);
  const auto pooled = build(4);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].type, pooled[i].type) << "observation " << i;
    EXPECT_EQ(serial[i].others, pooled[i].others) << "observation " << i;
    // Exact double comparison on purpose: any lane-count dependence in
    // the simulation would show up here as a ULP-level wobble.
    EXPECT_EQ(serial[i].slowdown, pooled[i].slowdown) << "observation " << i;
    EXPECT_EQ(serial[i].tail_slowdown, pooled[i].tail_slowdown)
        << "observation " << i;
  }
}

TEST(GroupTruth, ClusterOnMeasuredGroupTruthHasZeroFallbacksAndOracleRegret) {
  CacheSandbox sandbox;
  const std::vector<std::string> subset = {"Bandit", "swaptions"};
  GroupTruth truth{tiny_config(subset, /*max_arity=*/3)};
  truth.prefetch_all(3);

  cluster::ClusterConfig cfg;
  cfg.machines = 2;
  cfg.slots = 3;
  cluster::TraceOptions topt;
  topt.jobs = 60;
  topt.seed = 11;
  topt.mean_work = 4.0;
  topt.mean_interarrival = 1.0;
  const auto trace = cluster::synthetic_trace(subset.size(), topt);

  cluster::GroupTruthPolicy oracle{"oracle", truth};
  const auto run = cluster::simulate(cfg, truth, trace, oracle);
  EXPECT_EQ(run.pairwise_fallbacks, 0u)
      << "every billed group fits the measured arity";
  EXPECT_NEAR(run.mean_decision_regret, 0.0, 1e-12)
      << "the group-truth oracle minimizes exactly what the simulator bills";
  EXPECT_GE(run.mean_stretch, 1.0 - 1e-9);

  cluster::RandomPolicy random{7};
  const auto rnd = cluster::simulate(cfg, truth, trace, random);
  EXPECT_EQ(rnd.pairwise_fallbacks, 0u);
  EXPECT_GE(rnd.mean_decision_regret, 0.0);
}

}  // namespace
}  // namespace coperf::harness
