// Observability tests: the metrics registry stays exact under
// concurrent pool updates, disabled mode records nothing, snapshots
// and trace documents are valid JSON, and the cluster simulator's
// simulated-time timeline is structurally well formed (disjoint
// resident-set spans per machine lane, monotonic counter tracks) while
// never changing simulation results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/stats.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

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
  util::parallel_for(kIters, 8, [&](std::size_t i) {
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
  util::parallel_for(1000, 8, [&](std::size_t) { g.add(1.0); });
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
  // p50 of 6 samples is rank 3: the second of bucket 2's two samples,
  // halfway through [2, 4). p100 is the top of bucket 11, [1024, 2048).
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2048.0);
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
  // Never above the exclusive upper bound of its bucket.
  EXPECT_LE(h.quantile(0.99), static_cast<double>(1u << 21));
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
  Histogram& hist = reg.histogram("obs_test.snap_hist");
  hist.reset();
  for (const std::uint64_t v : {10u, 100u, 1000u}) hist.record(v);
  const json::Value doc = json::parse(reg.snapshot_json());
  ASSERT_EQ(doc.kind, json::Value::Kind::Object);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("obs_test.snap_counter").num(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("obs_test.snap_gauge").num(), 1.5);
  const json::Value& h = doc.at("histograms").at("obs_test.snap_hist");
  EXPECT_DOUBLE_EQ(h.at("count").num(), 3.0);
  EXPECT_DOUBLE_EQ(h.at("sum").num(), 1110.0);
  // The snapshot percentiles are the interpolated Histogram::quantile,
  // printed exactly.
  EXPECT_EQ(h.at("p50").num(), hist.quantile(0.50));
  EXPECT_EQ(h.at("p90").num(), hist.quantile(0.90));
  EXPECT_EQ(h.at("p99").num(), hist.quantile(0.99));
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
    util::parallel_for(64, 4, [&](std::size_t i) {
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

// A run through every traced path: machine faults (DOWN spans),
// preemptive migration (evict instants), admission shed, priority
// lanes, and latency-critical jobs (lc_regret args).
cluster::ClusterResult run_protected_cluster() {
  cluster::ClusterConfig cfg;
  cfg.machines = 4;
  cfg.slots = 2;
  cfg.type_names = {"hog", "victim", "neutral"};
  cluster::FaultScheduleOptions sched;
  sched.seed = 3;
  sched.horizon = 60.0;
  sched.mtbf = 25.0;
  sched.mttr = 5.0;
  cfg.faults = cluster::fault_schedule(cfg.machines, sched);
  cfg.migration.preempt = true;
  cfg.admission.queue_limit = 6;
  cluster::FleetTraceOptions fopt;
  fopt.jobs = 150;
  fopt.seed = 12;
  fopt.mean_interarrival = 0.5;
  fopt.class_shares = {0.6, 0.3, 0.1};
  auto trace = cluster::fleet_trace(3, fopt);
  for (std::size_t i = 0; i < trace.size(); i += 4) trace[i].slo_p99 = 1.3;
  cluster::RandomPolicy policy{5};
  harness::MatrixTruth truth{synthetic_matrix()};
  return cluster::simulate(cfg, truth, trace, policy);
}

TEST(TraceTest, TracingNeverChangesClusterResults) {
  ObsSandbox sandbox;
  Trace& tr = Trace::instance();
  tr.stop();
  tr.clear();
  const auto plain = run_protected_cluster();
  tr.start();
  const auto traced = run_protected_cluster();
  const json::Value doc = parse_current_trace();
  tr.stop();
  tr.clear();
  validate_trace_doc(doc);

  // The protection paths were recorded...
  std::size_t down_spans = 0, evicts = 0, lc_args = 0;
  for (const json::Value& e : doc.at("traceEvents").arr()) {
    const std::string& ph = e.at("ph").str();
    if (ph == "X" && e.at("name").str() == "DOWN") ++down_spans;
    if (ph == "i" && e.at("name").str().rfind("evict ", 0) == 0) ++evicts;
    if (ph == "i" && e.at("args").has("lc_regret")) ++lc_args;
  }
  EXPECT_GT(down_spans, 0u);
  EXPECT_GT(evicts, 0u);
  EXPECT_GT(lc_args, 0u);
  EXPECT_GT(plain.shed_jobs, 0u);
  const std::vector<std::string> names = synthetic_matrix().workloads;
  const std::string log = plain.log.str(names);

  // ...and changed nothing.
  EXPECT_EQ(log, traced.log.str(names));
#define SAME(field) EXPECT_EQ(plain.field, traced.field) << #field
  SAME(mean_stretch);
  SAME(mean_corun_slowdown);
  SAME(makespan);
  SAME(mean_decision_regret);
  SAME(billed_decisions);
  SAME(pairwise_fallbacks);
  SAME(failures);
  SAME(recoveries);
  SAME(fault_kills);
  SAME(migrations);
  SAME(shed_jobs);
  SAME(shed_work);
  SAME(completed_jobs);
  SAME(lc_jobs);
  SAME(mean_lc_tail_regret);
  SAME(slo_violation_decisions);
  ASSERT_EQ(plain.bills.size(), traced.bills.size());
  for (std::size_t k = 0; k < plain.bills.size(); ++k) {
    SAME(bills[k].chosen);
    SAME(bills[k].regret);
    SAME(bills[k].lc_regret);
  }
  ASSERT_EQ(plain.class_stats.size(), traced.class_stats.size());
  for (std::size_t c = 0; c < plain.class_stats.size(); ++c) {
    SAME(class_stats[c].jobs);
    SAME(class_stats[c].completed);
    SAME(class_stats[c].shed);
    SAME(class_stats[c].work_arrived);
    SAME(class_stats[c].work_completed);
    SAME(class_stats[c].goodput);
    SAME(class_stats[c].mean_stretch);
    SAME(class_stats[c].mean_regret);
    SAME(class_stats[c].billed);
  }
#undef SAME
}

/// FNV-1a over the canonical form of the first simulated-time process
/// in `doc`: its events sorted by (ph, tid, ts, name, args), with each
/// counter's samples collapsed to the last one per ts. The pid itself
/// is left out (it depends on earlier simulate() calls), so two
/// renderings that emit the same event set in any order hash equal.
std::uint64_t canonical_cluster_digest(const json::Value& doc) {
  struct Row {
    std::string ph;
    int tid;
    double ts;
    std::string name, args, text;
  };
  int pid = -1;
  std::vector<Row> rows;
  std::map<std::pair<std::string, double>, Row> counters;  // last per ts
  for (const json::Value& e : doc.at("traceEvents").arr()) {
    const int p = static_cast<int>(e.at("pid").num());
    if (p == Trace::kHostPid || (pid != -1 && p != pid)) continue;
    pid = p;
    Row r{e.at("ph").str(), static_cast<int>(e.at("tid").num()),
          e.at("ts").num(), e.at("name").str(),
          e.has("args") ? json::write(e.at("args")) : std::string{}, ""};
    if (!r.args.empty()) r.args.pop_back();  // write()'s trailing newline
    r.text = r.ph + ' ' + std::to_string(r.tid) + ' ' + e.at("ts").text +
             ' ' + r.name + ' ' + (e.has("dur") ? e.at("dur").text : "-") +
             ' ' + r.args;
    if (r.ph == "C")
      counters[{r.name, r.ts}] = std::move(r);
    else
      rows.push_back(std::move(r));
  }
  for (auto& [key, r] : counters) rows.push_back(std::move(r));
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.ph, a.tid, a.ts, a.name, a.args) <
           std::tie(b.ph, b.tid, b.ts, b.name, b.args);
  });
  std::uint64_t h = 14695981039346656037ull;
  for (const Row& r : rows)
    for (const unsigned char c : r.text + '\n') {
      h ^= c;
      h *= 1099511628211ull;
    }
  return h;
}

/// Runs `run` with the trace recording and digests its timeline.
template <typename Run>
std::uint64_t traced_digest(Run run) {
  Trace& tr = Trace::instance();
  tr.clear();
  tr.start();
  (void)run();
  const json::Value doc = parse_current_trace();
  tr.stop();
  tr.clear();
  return canonical_cluster_digest(doc);
}

// The timeline is rendered from ClusterResult after the run. These
// pins are the canonical digests of the timeline the event loop used
// to emit inline, event by event: the rendered event set is the same.
TEST(TraceTest, ClusterTimelineMatchesPinnedEventSet) {
  ObsSandbox sandbox;
  EXPECT_EQ(traced_digest([] { return run_cluster(7); }),
            0x99486b3ae1015a44ull);
  EXPECT_EQ(traced_digest(run_protected_cluster), 0xc32c1519c293ea1eull);
}

// One machine, two slots, every co-run at 1.00x (neutral), migration
// on, retries backing off 1, then 2 (retry_delay):
//   t=0, 1  class-0 jobs 0 and 1 arrive and place at once;
//   t=2     class-1 job 2 arrives to a full machine and evicts job 0
//           (the lowest class, first slot), which waits;
//   t=3     job 2 finishes and job 0 places again;
//   t=5     the machine fails, killing jobs 1 and 0: back at 5 + 1;
//   t=6     both re-enter while the machine is still down;
//   t=8     it recovers and both place;
//   t=9     it fails again: the second kill backs off 2, to 11;
//   t=10    it recovers; t=11 both re-enter and place at once.
TEST(TraceTest, RenderedTimelineOfAFaultScenario) {
  ObsSandbox sandbox;
  cluster::ClusterConfig cfg;
  cfg.machines = 1;
  cfg.slots = 2;
  cfg.type_names = {"hog", "victim", "neutral"};
  cfg.migration.preempt = true;
  using F = cluster::FaultEvent;
  cfg.faults = {{5.0, 0, F::Kind::Down}, {8.0, 0, F::Kind::Up},
                {9.0, 0, F::Kind::Down}, {10.0, 0, F::Kind::Up}};
  const std::vector<cluster::JobSpec> trace = {
      {0, 2, 0.0, 10.0, 0}, {1, 2, 1.0, 10.0, 0}, {2, 2, 2.0, 1.0, 1}};
  cluster::RandomPolicy policy{1};
  harness::MatrixTruth truth{synthetic_matrix()};
  Trace& tr = Trace::instance();
  tr.clear();
  tr.start();
  const auto res = cluster::simulate(cfg, truth, trace, policy);
  const json::Value doc = parse_current_trace();
  tr.stop();
  tr.clear();
  validate_trace_doc(doc);
  ASSERT_EQ(res.fault_kills, 4u);
  ASSERT_EQ(res.migrations, 1u);
  ASSERT_EQ(res.completed_jobs, 3u);

  std::vector<std::pair<double, double>> depth, down;
  std::vector<std::string> evicts;
  for (const json::Value& e : doc.at("traceEvents").arr()) {
    if (static_cast<int>(e.at("pid").num()) == Trace::kHostPid) continue;
    const std::string& ph = e.at("ph").str();
    const std::string& name = e.at("name").str();
    if (ph == "C")
      depth.emplace_back(e.at("ts").num(), e.at("args").at("value").num());
    if (ph == "X" && name == "DOWN")
      down.emplace_back(e.at("ts").num(), e.at("dur").num());
    if (ph == "i" && name.rfind("evict ", 0) == 0)
      evicts.push_back(name + json::write(e.at("args")));
  }
  // One sample per instant a job joined or left the lanes, holding the
  // depth after that instant (ts in us: 1 work unit = 1 ms).
  const std::vector<std::pair<double, double>> want_depth = {
      {0, 0}, {1000, 0}, {2000, 1}, {3000, 0},
      {6000, 2}, {8000, 0}, {11000, 0}};
  EXPECT_EQ(depth, want_depth);
  const std::vector<std::pair<double, double>> want_down = {{5000, 3000},
                                                           {9000, 1000}};
  EXPECT_EQ(down, want_down);
  // Only the preemption draws an instant (kills do not), claimed for
  // the class of job 2; job 0 still owed all its work (a restart from
  // zero).
  ASSERT_EQ(evicts.size(), 1u);
  EXPECT_EQ(evicts[0],
            "evict neutral{\"job\": 0, \"for_class\": 1, \"work_left\": 10}\n");
}

// Every cluster.* counter moves by exactly its ClusterResult source.
TEST(MetricsTest, ClusterCountersMatchTheResult) {
  ObsSandbox sandbox;
  Registry& reg = Registry::instance();
  const char* names[] = {"placements", "completions", "failures",
                         "recoveries", "fault_kills", "retries",
                         "migrations", "shed"};
  std::map<std::string, std::uint64_t> before;
  for (const char* n : names)
    before[n] = reg.counter(std::string{"cluster."} + n).value();
  const auto res = run_protected_cluster();
  std::uint64_t places = 0, retries = 0;
  for (const cluster::TraceEvent& e : res.log.events)
    places += e.kind == cluster::TraceEvent::Kind::Place;
  for (const cluster::JobOutcome& o : res.outcomes) retries += o.retries;
  EXPECT_EQ(res.placements, places);
  EXPECT_EQ(res.retries, retries);
  const std::map<std::string, std::uint64_t> want = {
      {"placements", places},        {"completions", res.completed_jobs},
      {"failures", res.failures},    {"recoveries", res.recoveries},
      {"fault_kills", res.fault_kills}, {"retries", retries},
      {"migrations", res.migrations}, {"shed", res.shed_jobs}};
  for (const char* n : names)
    EXPECT_EQ(reg.counter(std::string{"cluster."} + n).value() - before[n],
              want.at(n))
        << n;
  EXPECT_GT(retries, 0u);
  EXPECT_GT(res.migrations, 0u);
  for (std::size_t c = 0; c < res.class_stats.size(); ++c)
    EXPECT_EQ(reg.gauge("cluster.goodput.p" + std::to_string(c)).value(),
              res.class_stats[c].goodput)
        << "class " << c;
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
