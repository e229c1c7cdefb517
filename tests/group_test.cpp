// Fast-tier suite for the N-way group harness (harness/group.hpp):
// run_group({fg, bg}) must replay bit-identically and match a pair
// assembled directly on a Machine (the long-tier sim_equivalence_test
// pins the same path against golden snapshots from the pre-group
// tree), 3-way groups must run end to end on Tiny inputs, and invalid
// groups must be rejected.
#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/group.hpp"
#include "harness/plan.hpp"
#include "harness/runcache.hpp"
#include "harness/runner.hpp"
#include "median_reference.hpp"
#include "perf/pcm.hpp"
#include "sim/machine.hpp"
#include "wl/registry.hpp"

namespace coperf::harness {
namespace {

RunOptions tiny_opts(unsigned threads = 4) {
  RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = wl::SizeClass::Tiny;
  o.threads = threads;
  o.seed = 11;
  return o;
}

void expect_stats_eq(const sim::CoreStats& a, const sim::CoreStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.l1d_hits, b.l1d_hits);
  EXPECT_EQ(a.l1d_misses, b.l1d_misses);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.l3_hits, b.l3_hits);
  EXPECT_EQ(a.l3_misses, b.l3_misses);
  EXPECT_EQ(a.bytes_from_mem, b.bytes_from_mem);
  EXPECT_EQ(a.bytes_written_back, b.bytes_written_back);
  EXPECT_EQ(a.stall_cycles_mem, b.stall_cycles_mem);
  EXPECT_EQ(a.pending_l2_cycles, b.pending_l2_cycles);
  EXPECT_EQ(a.barrier_wait_cycles, b.barrier_wait_cycles);
  EXPECT_EQ(a.prefetches_issued, b.prefetches_issued);
}

void expect_run_eq(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.avg_bw_gbs, b.avg_bw_gbs);
  EXPECT_EQ(a.footprint_bytes, b.footprint_bytes);
  EXPECT_EQ(a.hit_cycle_limit, b.hit_cycle_limit);
  expect_stats_eq(a.stats, b.stats);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i].region, b.regions[i].region);
    expect_stats_eq(a.regions[i].stats, b.regions[i].stats);
  }
}

TEST(Group, TwoMemberGroupReplaysBitIdentically) {
  const RunOptions opt = tiny_opts();
  const GroupSpec spec = GroupSpec::pair("Bandit", "Stream", opt.threads,
                                         opt.bg_threads);
  auto& cache = RunCache::instance();
  const std::string saved_disk = cache.disk_dir();
  cache.set_disk_dir("");  // both runs must really simulate
  cache.clear();
  const GroupResult g = run_group(spec, opt);
  cache.clear();  // the replay must not just read the cache
  const GroupResult p = run_group(spec, opt);
  cache.set_disk_dir(saved_disk);

  ASSERT_EQ(g.members.size(), 2u);
  ASSERT_EQ(p.members.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) expect_run_eq(g.members[i], p.members[i]);
  EXPECT_EQ(g.runs_completed, p.runs_completed);
  EXPECT_EQ(g.total_avg_bw_gbs, p.total_avg_bw_gbs);
  EXPECT_EQ(g.finish_cycle, p.finish_cycle);
  EXPECT_EQ(g.hit_cycle_limit, p.hit_cycle_limit);
}

/// Independent ground truth: the same pair assembled directly on a
/// Machine, with the historical core placement and seed convention.
TEST(Group, TwoMemberGroupMatchesDirectMachineAssembly) {
  const RunOptions opt = tiny_opts();
  const auto& reg = wl::Registry::instance();
  auto fg_model =
      reg.create("Bandit", wl::AppParams{0, opt.threads, opt.size, opt.seed});
  auto bg_model = reg.create(
      "Stream", wl::AppParams{1, opt.bg_threads, opt.size, opt.seed + 0x9E37u});

  sim::Machine m{opt.machine};
  m.set_sample_window(opt.sample_window);
  sim::AppBinding fgb;
  fgb.id = 0;
  for (unsigned c = 0; c < opt.threads; ++c) fgb.cores.push_back(c);
  fgb.sources = fg_model->sources();
  m.add_app(std::move(fgb));
  sim::AppBinding bgb;
  bgb.id = 1;
  for (unsigned c = 0; c < opt.bg_threads; ++c)
    bgb.cores.push_back(opt.threads + c);
  bgb.sources = bg_model->sources();
  bgb.background = true;
  bgb.restart = [raw = bg_model.get()] { raw->restart(); };
  m.add_app(std::move(bgb));
  const sim::RunOutcome out = m.run();

  auto& cache = RunCache::instance();
  const std::string saved_disk = cache.disk_dir();
  cache.set_disk_dir("");
  cache.clear();
  const GroupResult g = run_group(
      GroupSpec::pair("Bandit", "Stream", opt.threads, opt.bg_threads), opt);
  cache.set_disk_dir(saved_disk);
  EXPECT_EQ(g.members[0].cycles, out.app_finish[0]);
  EXPECT_EQ(g.members[1].cycles, out.app_finish[1]);
  EXPECT_EQ(g.finish_cycle, out.finish_cycle);
  EXPECT_EQ(g.runs_completed[1], out.bg_runs[1]);
  expect_stats_eq(g.members[0].stats, m.app_stats(0));
  expect_stats_eq(g.members[1].stats, m.app_stats(1));
}

TEST(Group, ThreeWayGroupRunsEndToEnd) {
  const RunOptions opt = tiny_opts();
  GroupSpec spec;
  spec.members = {MemberSpec{"Bandit", 2, {}, false},
                  MemberSpec{"swaptions", 2, {}, false},
                  MemberSpec{"Stream", 4, {}, true}};
  const GroupResult g = run_group(spec, opt);

  ASSERT_EQ(g.members.size(), 3u);
  ASSERT_EQ(g.runs_completed.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(g.members[i].stats.instructions, 0u) << "member " << i;
    EXPECT_GT(g.members[i].stats.cycles, 0u) << "member " << i;
    EXPECT_EQ(g.members[i].threads, spec.members[i].threads);
    EXPECT_FALSE(g.members[i].hit_cycle_limit);
  }
  // Run-to-completion members never report loop iterations.
  EXPECT_EQ(g.runs_completed[0], 0u);
  EXPECT_EQ(g.runs_completed[1], 0u);
  // The group ends when the last foreground retires.
  EXPECT_EQ(g.finish_cycle,
            std::max(g.members[0].cycles, g.members[1].cycles));
  EXPECT_FALSE(g.hit_cycle_limit);
  // Per-member bandwidth shares are consistent with the socket total.
  EXPECT_GT(g.total_avg_bw_gbs, 0.0);
  for (const RunResult& m : g.members)
    EXPECT_GE(g.total_avg_bw_gbs + 0.5, m.avg_bw_gbs);
}

TEST(Group, ThreeWayInterferenceSlowsTheVictim) {
  const RunOptions opt = tiny_opts();
  const sim::Cycle solo = run_solo("Bandit", [&] {
                            RunOptions o = opt;
                            o.threads = 2;
                            return o;
                          }()).cycles;
  GroupSpec trio;
  trio.members = {MemberSpec{"Bandit", 2, {}, false},
                  MemberSpec{"Stream", 3, {}, true},
                  MemberSpec{"fotonik3d", 3, {}, true}};
  const GroupResult g = run_group(trio, opt);
  EXPECT_GT(g.members[0].cycles, solo)
      << "a bandwidth victim must slow down next to two streaming offenders";
}

TEST(Group, CycleLimitIsFlagged) {
  RunOptions opt = tiny_opts();
  opt.cycle_limit = 20'000;  // far below any Tiny finish time
  const GroupResult g =
      run_group(GroupSpec::pair("Bandit", "Stream", 4, 4), opt);
  EXPECT_TRUE(g.hit_cycle_limit);
  for (const RunResult& m : g.members) EXPECT_TRUE(m.hit_cycle_limit);
}

TEST(Group, RejectsInvalidSpecs) {
  const RunOptions opt = tiny_opts();
  EXPECT_THROW(run_group(GroupSpec{}, opt), std::invalid_argument);

  GroupSpec all_bg;
  all_bg.members = {MemberSpec{"Bandit", 2, {}, true},
                    MemberSpec{"Stream", 2, {}, true}};
  EXPECT_THROW(run_group(all_bg, opt), std::invalid_argument);

  GroupSpec zero_threads;
  zero_threads.members = {MemberSpec{"Bandit", 0, {}, false}};
  EXPECT_THROW(run_group(zero_threads, opt), std::invalid_argument);

  GroupSpec oversubscribed;
  oversubscribed.members = {MemberSpec{"Bandit", 4, {}, false},
                            MemberSpec{"Stream", 3, {}, false},
                            MemberSpec{"swaptions", 3, {}, false}};
  EXPECT_THROW(run_group(oversubscribed, opt), std::invalid_argument);
}

TEST(Group, MedianRanksByFirstMember) {
  const RunOptions opt = tiny_opts();
  const GroupSpec spec = GroupSpec::solo("Bandit", 2);
  ExperimentPlan plan{opt};
  plan.add_group(spec, 3);
  const GroupResult med = plan.execute().group(spec, 3);
  EXPECT_EQ(med.members[0].cycles,
            median_of_runs(spec, opt, 3).members[0].cycles);
  // Median-of-3 must be one of the three seeds' results.
  bool found = false;
  for (unsigned r = 0; r < 3; ++r) {
    RunOptions o = opt;
    o.seed = opt.seed + r;
    found |= run_group(spec, o).members[0].cycles == med.members[0].cycles;
  }
  EXPECT_TRUE(found);
  EXPECT_THROW(plan.add_group(spec, 0), std::invalid_argument);
}

TEST(Group, CacheKeyCoversMembersAndSemantics) {
  const RunOptions opt = tiny_opts();
  const std::string pair_ab =
      RunCache::group_key(GroupSpec::pair("Bandit", "Stream", 4, 4), opt);
  EXPECT_NE(pair_ab,
            RunCache::group_key(GroupSpec::pair("Stream", "Bandit", 4, 4), opt))
      << "member order is placement order, not symmetric";
  EXPECT_NE(pair_ab,
            RunCache::group_key(GroupSpec::pair("Bandit", "Stream", 2, 4), opt))
      << "per-member threads must be in the key";

  GroupSpec both_fg = GroupSpec::pair("Bandit", "Stream", 4, 4);
  both_fg.members[1].restart_until_done = false;
  EXPECT_NE(pair_ab, RunCache::group_key(both_fg, opt))
      << "restart semantics must be in the key";

  GroupSpec sized = GroupSpec::pair("Bandit", "Stream", 4, 4);
  sized.members[1].size = wl::SizeClass::Small;
  EXPECT_NE(pair_ab, RunCache::group_key(sized, opt))
      << "a per-member size override must be in the key";
}

}  // namespace
}  // namespace coperf::harness
