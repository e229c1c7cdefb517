// Latency-critical serving workloads and the per-request latency
// pipeline: kvserve/lsmserve are registered and emit request
// boundaries, the latency distribution is deterministic (same seed ->
// bit-identical histogram and percentiles, solo and in groups), batch
// workloads stay latency-free, the report emitters round-trip the
// latency fields, and the tail oracle answers p99 slowdown.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/group.hpp"
#include "harness/grouptruth.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "predict/signature.hpp"
#include "wl/registry.hpp"

namespace coperf {
namespace {

harness::RunOptions tiny_opts(unsigned seed = 7) {
  harness::RunOptions opt;
  opt.machine = sim::MachineConfig::scaled();
  opt.size = wl::SizeClass::Tiny;
  opt.seed = seed;
  opt.sample_window = 50'000;
  return opt;
}

TEST(Serve, RegisteredAsOwnSuiteOutsideApplications) {
  auto& reg = wl::Registry::instance();
  const auto serve = reg.suite("serve");
  ASSERT_EQ(serve.size(), 2u);
  EXPECT_NE(reg.find("kvserve"), nullptr);
  EXPECT_NE(reg.find("lsmserve"), nullptr);
  // Serving workloads must not leak into the paper's 25-app batch set
  // (that would perturb every matrix bench and golden).
  for (const auto* info : reg.applications()) {
    EXPECT_NE(info->name, "kvserve");
    EXPECT_NE(info->name, "lsmserve");
  }
}

TEST(Serve, KvServeRecordsRequestLatencies) {
  const auto r = harness::run_solo("kvserve", tiny_opts());
  EXPECT_GT(r.cycles, 0u);
  ASSERT_GT(r.latency.count, 0u);
  EXPECT_GT(r.latency.sum, 0u);
  // Percentiles are positive, monotone, and below the run length.
  const double p50 = r.latency.quantile(0.50);
  const double p95 = r.latency.quantile(0.95);
  const double p99 = r.latency.quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LT(p99, static_cast<double>(r.cycles));
  // Request latencies are observational: mean request cost is bounded
  // by total cycles / requests (requests execute back-to-back).
  EXPECT_LE(r.latency.mean(),
            static_cast<double>(r.cycles) /
                static_cast<double>(r.latency.count) * 4.0);
}

TEST(Serve, LsmServeRecordsGetLatenciesOnServingThreadsOnly) {
  const auto r = harness::run_solo("lsmserve", tiny_opts());
  ASSERT_GT(r.latency.count, 0u);
  EXPECT_GT(r.latency.quantile(0.99), 0.0);
}

TEST(Serve, BatchWorkloadsStayLatencyFree) {
  const auto r = harness::run_solo("Stream", tiny_opts());
  EXPECT_TRUE(r.latency.empty());
  EXPECT_EQ(r.latency.sum, 0u);
  for (const auto b : r.latency.buckets) EXPECT_EQ(b, 0u);
}

TEST(Serve, SoloLatencyIsBitIdenticalAcrossRepeats) {
  for (const char* wl : {"kvserve", "lsmserve"}) {
    const auto a = harness::run_solo(wl, tiny_opts(11));
    const auto b = harness::run_solo(wl, tiny_opts(11));
    EXPECT_EQ(a.cycles, b.cycles) << wl;
    EXPECT_EQ(a.latency, b.latency) << wl;
    EXPECT_DOUBLE_EQ(a.latency.quantile(0.50), b.latency.quantile(0.50));
    EXPECT_DOUBLE_EQ(a.latency.quantile(0.99), b.latency.quantile(0.99));
    // A different seed reorders the key stream; the distribution need
    // not match bit-for-bit (same count, different shape is fine).
    const auto c = harness::run_solo(wl, tiny_opts(12));
    EXPECT_EQ(a.latency.count, c.latency.count) << wl;
  }
}

TEST(Serve, GroupLatencyIsBitIdenticalAndTailDegrades) {
  harness::GroupSpec g;
  g.members = {{"kvserve", 2}, {"Stream", 2}, {"Bandit", 2}};
  const auto opt = tiny_opts(3);
  const auto a = harness::run_group(g, opt);
  const auto b = harness::run_group(g, opt);
  ASSERT_EQ(a.members.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.members[i].cycles, b.members[i].cycles);
    EXPECT_EQ(a.members[i].latency, b.members[i].latency);
  }
  // Only the serving member carries a distribution.
  EXPECT_GT(a.members[0].latency.count, 0u);
  EXPECT_TRUE(a.members[1].latency.empty());
  EXPECT_TRUE(a.members[2].latency.empty());
  // Under co-run interference p99 must not IMPROVE vs a solo baseline
  // at the group's member geometry.
  harness::GroupSpec gs;
  gs.members = {{"kvserve", 2}};
  const auto solo = harness::run_group(gs, opt).members[0];
  EXPECT_GE(a.members[0].latency.quantile(0.99),
            solo.latency.quantile(0.99) * 0.999);
}

TEST(Serve, GroupTruthAnswersTailSlowdown) {
  harness::GroupTruth::Config cfg;
  cfg.workloads = {"kvserve", "Stream"};
  cfg.opt = tiny_opts(5);
  cfg.max_arity = 2;
  cfg.member_threads = 2;
  harness::GroupTruth truth{cfg};

  const double tail = truth.tail_slowdown(0, {1});
  const double tp = truth.slowdown(0, {1});
  EXPECT_GE(tail, 1.0);
  // Tail and throughput slowdown are distinct metrics; both computed
  // from the same measured group, both deterministic.
  EXPECT_DOUBLE_EQ(truth.tail_slowdown(0, {1}), tail);
  // A batch foreground has no latency distribution: its tail metric
  // falls back to the throughput value (total over the axis).
  EXPECT_DOUBLE_EQ(truth.tail_slowdown(1, {0}), truth.slowdown(1, {0}));
  // Empty co-runner set is the solo baseline by definition.
  EXPECT_DOUBLE_EQ(truth.tail_slowdown(0, {}), 1.0);
  EXPECT_THROW(truth.tail_slowdown(7, {0}), std::out_of_range);
  // Observations expose the tail next to the throughput value.
  bool saw_serving_fg = false;
  for (const auto& o : truth.observations())
    if (o.type == 0 && !o.others.empty()) {
      saw_serving_fg = true;
      EXPECT_GT(o.tail_slowdown, 0.0);
    }
  EXPECT_TRUE(saw_serving_fg);
  (void)tp;
}

TEST(Serve, ReportEmittersRoundTripLatency) {
  const auto r = harness::run_solo("kvserve", tiny_opts());
  const std::string js = harness::report::to_json(r);
  EXPECT_NE(js.find("\"latency\": {\"count\": "), std::string::npos);
  EXPECT_NE(js.find("\"p99\": "), std::string::npos);
  EXPECT_NE(js.find("\"buckets\": [["), std::string::npos)
      << "a serving run must serialize non-empty sparse buckets";

  // Batch run: latency object present but empty.
  const auto batch = harness::run_solo("Stream", tiny_opts());
  const std::string bjs = harness::report::to_json(batch);
  EXPECT_NE(bjs.find("\"latency\": {\"count\": 0"), std::string::npos);
  EXPECT_NE(bjs.find("\"buckets\": []"), std::string::npos);
}

TEST(Serve, SignaturePassesTailFeaturesThrough) {
  const auto opt = tiny_opts();
  const auto serving = predict::WorkloadSignature::from(
      harness::run_solo("kvserve", opt), opt.machine);
  EXPECT_TRUE(serving.latency_critical());
  EXPECT_GT(serving.request_count, 0u);
  EXPECT_GT(serving.solo_lat_p50, 0.0);
  EXPECT_GE(serving.solo_lat_p99, serving.solo_lat_p50);
  const auto batch = predict::WorkloadSignature::from(
      harness::run_solo("Stream", opt), opt.machine);
  EXPECT_FALSE(batch.latency_critical());
  EXPECT_DOUBLE_EQ(batch.solo_lat_p99, 0.0);
}

}  // namespace
}  // namespace coperf
