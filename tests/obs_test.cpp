// Observability tests: the metrics registry stays exact under
// concurrent pool updates, disabled mode records nothing, snapshots
// and trace documents are valid JSON, and the cluster simulator's
// simulated-time timeline is structurally well formed (disjoint
// resident-set spans per machine lane, monotonic counter tracks) while
// never changing simulation results.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "harness/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/stats.hpp"
#include "util/json.hpp"

namespace coperf::obs {
namespace {

/// Structural validation of a trace document. Checks every event is
/// well formed, 'X' spans on one (pid, tid) lane are disjoint or
/// properly nested, and counter tracks on simulated timelines (pid !=
/// kHostPid, where timestamps are event-loop time) are nondecreasing
/// in file order. Host counter tracks are exempt: their timestamps are
/// read before the buffer lock, so concurrent emitters may interleave.
void validate_trace_doc(const json::Value& doc) {
  ASSERT_EQ(doc.kind, json::Value::Kind::Object);
  ASSERT_TRUE(doc.has("traceEvents"));
  const json::Value& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, json::Value::Kind::Array);

  struct SpanRec {
    double ts, dur;
  };
  std::map<std::pair<int, int>, std::vector<SpanRec>> spans;
  std::map<std::pair<int, std::string>, double> counter_last;

  for (const json::Value& e : events.arr()) {
    ASSERT_EQ(e.kind, json::Value::Kind::Object);
    ASSERT_EQ(e.at("name").kind, json::Value::Kind::String);
    ASSERT_EQ(e.at("ph").kind, json::Value::Kind::String);
    ASSERT_EQ(e.at("ph").str().size(), 1u);
    const char ph = e.at("ph").str()[0];
    ASSERT_TRUE(ph == 'X' || ph == 'i' || ph == 'C' || ph == 'M')
        << "unexpected phase " << ph;
    const int pid = static_cast<int>(e.at("pid").num());
    const int tid = static_cast<int>(e.at("tid").num());
    const double ts = e.at("ts").num();
    ASSERT_GE(ts, 0.0);
    if (ph == 'X') {
      ASSERT_GE(e.at("dur").num(), 0.0);
      spans[{pid, tid}].push_back({ts, e.at("dur").num()});
    }
    if (ph == 'i') ASSERT_EQ(e.at("s").str(), "t");
    if (ph == 'C') {
      ASSERT_TRUE(e.has("args"));
      ASSERT_TRUE(e.at("args").has("value"));
      if (pid != Trace::kHostPid) {
        const auto key = std::make_pair(pid, e.at("name").str());
        const auto it = counter_last.find(key);
        if (it != counter_last.end())
          ASSERT_GE(ts, it->second) << "counter track went backwards";
        counter_last[key] = ts;
      }
    }
    if (ph == 'M') ASSERT_TRUE(e.at("args").has("name"));
  }

  // Same-lane spans: sorted by (start, -dur), each span must either
  // start after the enclosing one ends or end within it.
  constexpr double kEps = 1e-3;  // us; float slack on boundaries
  for (auto& [lane, v] : spans) {
    std::sort(v.begin(), v.end(), [](const SpanRec& a, const SpanRec& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    std::vector<double> stack;  // open span end times
    for (const SpanRec& s : v) {
      while (!stack.empty() && stack.back() <= s.ts + kEps) stack.pop_back();
      if (!stack.empty())
        ASSERT_LE(s.ts + s.dur, stack.back() + kEps)
            << "overlapping spans on lane (" << lane.first << ","
            << lane.second << ")";
      stack.push_back(s.ts + s.dur);
    }
  }
}

json::Value parse_current_trace() {
  std::ostringstream os;
  Trace::instance().write(os);
  return json::parse(os.str());
}

/// RAII guard: every test leaves metrics enabled and the trace stopped
/// and empty, whatever it toggled.
struct ObsSandbox {
  ~ObsSandbox() {
    set_metrics_enabled(true);
    Trace::instance().stop();
    Trace::instance().clear();
  }
};

// --- metrics ---------------------------------------------------------

TEST(MetricsTest, CounterExactUnderConcurrentPoolUpdates) {
  ObsSandbox sandbox;
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("obs_test.concurrent_counter");
  Histogram& h = reg.histogram("obs_test.concurrent_hist");
  c.reset();
  h.reset();
  constexpr std::size_t kIters = 10'000;
  harness::parallel_for(kIters, 8, [&](std::size_t i) {
    c.add();
    h.record(i);
  });
  EXPECT_EQ(c.value(), kIters);
  EXPECT_EQ(h.count(), kIters);
  EXPECT_EQ(h.sum(), kIters * (kIters - 1) / 2);
}

TEST(MetricsTest, GaugeSetAndAtomicAdd) {
  ObsSandbox sandbox;
  Gauge& g = Registry::instance().gauge("obs_test.gauge");
  g.reset();
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  harness::parallel_for(1000, 8, [&](std::size_t) { g.add(1.0); });
  EXPECT_DOUBLE_EQ(g.value(), 1002.5);
}

TEST(MetricsTest, HistogramLogBuckets) {
  ObsSandbox sandbox;
  Histogram h;
  h.record(0);    // bucket 0
  h.record(1);    // bit_width 1 -> bucket 1
  h.record(2);    // bucket 2
  h.record(3);    // bucket 2
  h.record(4);    // bucket 3
  h.record(1024);  // bucket 11
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(11), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1034u);
  // p50 of 6 samples lands in bucket 2 -> upper bound 3.
  EXPECT_EQ(h.quantile_upper(0.5), 3u);
  EXPECT_EQ(h.quantile_upper(1.0), 2047u);
}

TEST(MetricsTest, HistogramInterpolatedQuantile) {
  ObsSandbox sandbox;
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram
  h.record(5);
  // A single sample: every quantile interpolates inside its bucket
  // [4, 8), never outside it.
  EXPECT_GE(h.quantile(0.0), 4.0);
  EXPECT_LE(h.quantile(1.0), 8.0);
  EXPECT_LE(h.quantile(0.25), h.quantile(0.75));
  for (std::uint64_t v = 0; v < 100; ++v) h.record(1u << 20);
  // Mass overwhelmingly in bucket 21 ([2^20, 2^21)): the median must
  // land there, and the interpolated value within the bucket bounds.
  EXPECT_GE(h.quantile(0.5), static_cast<double>(1u << 20));
  EXPECT_LE(h.quantile(0.5), static_cast<double>(1u << 21));
  // Never above the bucket-upper-bound answer.
  EXPECT_LE(h.quantile(0.99),
            static_cast<double>(h.quantile_upper(0.99)) + 1.0);
  // Monotone in q.
  EXPECT_LE(h.quantile(0.50), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
}

TEST(MetricsTest, HistogramQuantileMatchesLatencyStatsMath) {
  // Histogram::quantile and sim::LatencyStats::quantile share
  // obs/quantile.hpp -- identical samples must give identical answers.
  ObsSandbox sandbox;
  Histogram h;
  sim::LatencyStats l;
  const std::uint64_t samples[] = {3, 17, 17, 250, 4096, 4097, 70000};
  for (const std::uint64_t s : samples) {
    h.record(s);
    l.record(s);
  }
  for (const double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), l.quantile(q)) << "q=" << q;
}

TEST(MetricsTest, DisabledUpdatesAreDropped) {
  ObsSandbox sandbox;
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("obs_test.disabled_counter");
  Gauge& g = reg.gauge("obs_test.disabled_gauge");
  Histogram& h = reg.histogram("obs_test.disabled_hist");
  c.reset();
  g.reset();
  h.reset();
  set_metrics_enabled(false);
  c.add(7);
  g.set(1.0);
  g.add(1.0);
  h.record(42);
  set_metrics_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsTest, SnapshotIsValidJsonAndCarriesValues) {
  ObsSandbox sandbox;
  Registry& reg = Registry::instance();
  reg.counter("obs_test.snap_counter").reset();
  reg.counter("obs_test.snap_counter").add(3);
  reg.gauge("obs_test.snap_gauge").set(1.5);
  reg.histogram("obs_test.snap_hist").record(10);
  const json::Value doc = json::parse(reg.snapshot_json());
  ASSERT_EQ(doc.kind, json::Value::Kind::Object);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("obs_test.snap_counter").num(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("obs_test.snap_gauge").num(), 1.5);
  const json::Value& h = doc.at("histograms").at("obs_test.snap_hist");
  EXPECT_DOUBLE_EQ(h.at("count").num(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("sum").num(), 10.0);
}

TEST(MetricsTest, LabeledSeriesName) {
  EXPECT_EQ(Registry::labeled("plan.trials", "bench", "fig5"),
            "plan.trials{bench=fig5}");
}

// --- trace -----------------------------------------------------------

TEST(TraceTest, DisabledRecordsNothingAndReadsNoClock) {
  ObsSandbox sandbox;
  Trace& tr = Trace::instance();
  tr.stop();
  tr.clear();
  ASSERT_FALSE(tr.enabled());
  {
    Trace::Span span{"should-not-record"};
    tr.instant("nope");
    tr.counter("nope", 1.0);
    tr.complete(5, 0, "nope", 0.0, 1.0);
  }
  EXPECT_EQ(tr.event_count(), 0u);
}

TEST(TraceTest, HostSpansFormValidDocument) {
  ObsSandbox sandbox;
  Trace& tr = Trace::instance();
  tr.start();
  {
    Trace::Span outer{"outer", Args{}.set("k", 1).str()};
    harness::parallel_for(64, 4, [&](std::size_t i) {
      const double t0 = tr.now_us();
      tr.complete_host("work", t0, tr.now_us() - t0,
                       Args{}.set("i", i).str());
      if (i % 8 == 0) tr.instant("milestone");
    });
    tr.counter("inflight", 0.0);
  }
  ASSERT_GT(tr.event_count(), 64u);
  const json::Value doc = parse_current_trace();
  validate_trace_doc(doc);
  // Every span event landed on the host timeline.
  for (const json::Value& e : doc.at("traceEvents").arr())
    if (e.at("ph").str() == "X")
      EXPECT_EQ(static_cast<int>(e.at("pid").num()), Trace::kHostPid);
  tr.stop();
  tr.clear();
}

TEST(TraceTest, ArgsEscapesAndRenders) {
  const std::string json =
      Args{}.set("s", "a\"b\\c\nd").set("n", 42).set("d", 1.5).set("b", true)
          .str();
  const json::Value v = json::parse(json);
  EXPECT_EQ(v.at("s").str(), "a\"b\\c\nd");
  EXPECT_DOUBLE_EQ(v.at("n").num(), 42.0);
  EXPECT_DOUBLE_EQ(v.at("d").num(), 1.5);
  EXPECT_TRUE(v.at("b").boolean());
}

// --- cluster simulated-time timeline ---------------------------------

harness::CorunMatrix synthetic_matrix() {
  harness::CorunMatrix m;
  m.workloads = {"hog", "victim", "neutral"};
  m.solo_cycles = {1'000'000, 1'000'000, 1'000'000};
  m.normalized = {
      {1.60, 1.10, 1.05},
      {2.20, 1.05, 1.02},
      {1.05, 1.01, 1.00},
  };
  return m;
}

cluster::ClusterResult run_cluster(std::uint64_t seed) {
  cluster::ClusterConfig cfg;
  cfg.machines = 3;
  cfg.slots = 2;
  cfg.type_names = {"hog", "victim", "neutral"};
  cluster::TraceOptions topt;
  topt.jobs = 60;
  topt.seed = seed;
  topt.mean_interarrival = 2.0;
  const auto trace = cluster::synthetic_trace(3, topt);
  cluster::RandomPolicy policy{seed};
  harness::MatrixTruth truth{synthetic_matrix()};
  return cluster::simulate(cfg, truth, trace, policy);
}

TEST(TraceTest, ClusterTimelineWellFormed) {
  ObsSandbox sandbox;
  Trace& tr = Trace::instance();
  tr.start();
  const auto res = run_cluster(7);
  ASSERT_EQ(res.outcomes.size(), 60u);
  const json::Value doc = parse_current_trace();
  tr.stop();
  tr.clear();
  validate_trace_doc(doc);

  // The run got its own simulated-time process: machine lanes holding
  // resident-set spans, "place ..." decision instants carrying the
  // billing args, and a queue-depth counter track.
  int sim_pid = -1;
  std::size_t resident_spans = 0, place_events = 0, queue_samples = 0;
  for (const json::Value& e : doc.at("traceEvents").arr()) {
    const int pid = static_cast<int>(e.at("pid").num());
    if (pid == Trace::kHostPid) continue;
    const std::string& ph = e.at("ph").str();
    if (ph == "M") continue;
    if (sim_pid == -1) sim_pid = pid;
    EXPECT_EQ(pid, sim_pid) << "one simulate() call must use one pid";
    const int tid = static_cast<int>(e.at("tid").num());
    if (ph == "X") {
      ++resident_spans;
      EXPECT_GE(tid, 0);
      EXPECT_LT(tid, 3);
      EXPECT_TRUE(e.at("args").has("residents"));
    } else if (ph == "i") {
      ++place_events;
      EXPECT_EQ(e.at("name").str().rfind("place ", 0), 0u);
      const json::Value& a = e.at("args");
      EXPECT_TRUE(a.has("policy"));
      EXPECT_TRUE(a.has("predicted_cost"));
      EXPECT_TRUE(a.has("true_cost"));
      EXPECT_TRUE(a.has("regret"));
    } else if (ph == "C") {
      EXPECT_EQ(e.at("name").str(), "queue_depth");
      ++queue_samples;
    }
  }
  EXPECT_GT(resident_spans, 0u);
  EXPECT_EQ(place_events, 60u);  // one decision instant per job
  EXPECT_GT(queue_samples, 0u);
}

TEST(TraceTest, TracingNeverChangesClusterResults) {
  ObsSandbox sandbox;
  Trace& tr = Trace::instance();
  tr.stop();
  tr.clear();
  const auto plain = run_cluster(11);
  tr.start();
  const auto traced = run_cluster(11);
  tr.stop();
  tr.clear();
  EXPECT_EQ(plain.mean_stretch, traced.mean_stretch);
  EXPECT_EQ(plain.mean_decision_regret, traced.mean_decision_regret);
  EXPECT_EQ(plain.makespan, traced.makespan);
  EXPECT_EQ(plain.log.events.size(), traced.log.events.size());
}

TEST(TraceTest, SeparatePidPerSimulateCall) {
  ObsSandbox sandbox;
  Trace& tr = Trace::instance();
  tr.start();
  (void)run_cluster(1);
  (void)run_cluster(2);
  const json::Value doc = parse_current_trace();
  tr.stop();
  tr.clear();
  std::vector<int> pids;
  for (const json::Value& e : doc.at("traceEvents").arr()) {
    const int pid = static_cast<int>(e.at("pid").num());
    if (pid != Trace::kHostPid &&
        std::find(pids.begin(), pids.end(), pid) == pids.end())
      pids.push_back(pid);
  }
  EXPECT_EQ(pids.size(), 2u);
}

}  // namespace
}  // namespace coperf::obs
