// Field-by-field equality checks for run results, shared by the suites
// that assert a replay, a cache hit or a JSON reload is bit-identical.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "harness/group.hpp"
#include "sim/stats.hpp"

namespace coperf::harness {

inline void expect_stats_eq(const sim::CoreStats& a, const sim::CoreStats& b) {
  for (const sim::CoreStatField& f : sim::kCoreStatFields)
    EXPECT_EQ(a.*f.member, b.*f.member) << f.name;
}

inline void expect_run_eq(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.avg_bw_gbs, b.avg_bw_gbs);
  EXPECT_EQ(a.footprint_bytes, b.footprint_bytes);
  EXPECT_EQ(a.hit_cycle_limit, b.hit_cycle_limit);
  EXPECT_EQ(a.latency, b.latency);
  expect_stats_eq(a.stats, b.stats);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i].region, b.regions[i].region);
    expect_stats_eq(a.regions[i].stats, b.regions[i].stats);
  }
}

inline void expect_group_eq(const GroupResult& a, const GroupResult& b) {
  ASSERT_EQ(a.members.size(), b.members.size());
  for (std::size_t i = 0; i < a.members.size(); ++i)
    expect_run_eq(a.members[i], b.members[i]);
  EXPECT_EQ(a.runs_completed, b.runs_completed);
  EXPECT_EQ(a.total_avg_bw_gbs, b.total_avg_bw_gbs);
  EXPECT_EQ(a.finish_cycle, b.finish_cycle);
  EXPECT_EQ(a.hit_cycle_limit, b.hit_cycle_limit);
}

}  // namespace coperf::harness
