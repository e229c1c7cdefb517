// Fault-injection and graceful-degradation tests: the fault schedule
// generator, fault-free byte-identity against the reference loop,
// deterministic fault replay, retry backoff and its exhaustion,
// down machines (no free slots, and a placement on one is rejected),
// preemptive migration ordering (pinned on fixtures and replayed from
// audit logs against a brute-force victim scan), and admission-control
// shed billing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster_fixtures.hpp"
#include "cluster_reference.hpp"
#include "harness/matrix.hpp"

namespace coperf::cluster {
namespace {

// Neutral x neutral co-runs at 1.00x in synthetic_truth, so the
// hand-computed scenarios below stay in solo-speed arithmetic.
constexpr std::size_t kNeutral = 2;

std::vector<JobSpec> neutral_jobs(
    const std::vector<std::pair<double, double>>& arrival_work,
    unsigned priority = 0) {
  std::vector<JobSpec> trace;
  for (std::size_t i = 0; i < arrival_work.size(); ++i) {
    JobSpec j;
    j.id = i;
    j.type = kNeutral;
    j.arrival = arrival_work[i].first;
    j.work = arrival_work[i].second;
    j.priority = priority;
    trace.push_back(j);
  }
  return trace;
}

// --- fault schedule generator ---------------------------------------

TEST(FaultSchedule, DeterministicSortedAlternating) {
  FaultScheduleOptions opt;
  opt.seed = 42;
  opt.horizon = 2000.0;
  opt.mtbf = 100.0;
  opt.mttr = 10.0;
  const auto a = fault_schedule(8, opt);
  const auto b = fault_schedule(8, opt);
  EXPECT_EQ(a, b) << "same seed must yield an identical schedule";
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size() % 2, 0u) << "every Down needs a matching Up";

  double prev = 0.0;
  std::vector<int> down(8, 0);
  for (const FaultEvent& f : a) {
    EXPECT_GE(f.time, prev);
    prev = f.time;
    ASSERT_LT(f.machine, 8u);
    if (f.kind == FaultEvent::Kind::Down) {
      EXPECT_EQ(down[f.machine], 0) << "double Down on machine " << f.machine;
      down[f.machine] = 1;
    } else {
      EXPECT_EQ(down[f.machine], 1) << "Up without Down on " << f.machine;
      down[f.machine] = 0;
    }
  }
  for (const int d : down) EXPECT_EQ(d, 0);
}

TEST(FaultSchedule, MachineStreamsInvariantUnderFleetSize) {
  FaultScheduleOptions opt;
  opt.seed = 7;
  opt.horizon = 1500.0;
  const auto small = fault_schedule(2, opt);
  const auto large = fault_schedule(16, opt);
  std::vector<FaultEvent> filtered;
  for (const FaultEvent& f : large)
    if (f.machine < 2) filtered.push_back(f);
  EXPECT_EQ(small, filtered)
      << "machine k's schedule must not depend on the fleet size";
}

TEST(FaultSchedule, RejectsBadOptions) {
  FaultScheduleOptions opt;
  opt.mtbf = 0.0;
  EXPECT_THROW(fault_schedule(2, opt), std::invalid_argument);
  opt = {};
  opt.horizon = -1.0;
  EXPECT_THROW(fault_schedule(2, opt), std::invalid_argument);
  // Non-finite options, which a plain `<= 0` check lets through: a NaN
  // or infinite horizon never ends a machine's draw loop.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double FaultScheduleOptions::*field :
       {&FaultScheduleOptions::horizon, &FaultScheduleOptions::mtbf,
        &FaultScheduleOptions::mttr}) {
    opt = {};
    opt.*field = nan;
    EXPECT_THROW(fault_schedule(2, opt), std::invalid_argument);
  }
  opt = {};
  opt.horizon = inf;
  EXPECT_THROW(fault_schedule(2, opt), std::invalid_argument);
}

// --- fault-free identity and config validation ----------------------

// With no faults, no migration, and no admission control, the fleet
// engine must stay byte-identical to the reference specification.
TEST(FaultFree, ByteIdenticalToReference) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  TraceOptions topt;
  topt.jobs = 400;
  topt.seed = 3;
  topt.mean_interarrival = 0.8;
  const auto trace = synthetic_trace(truth.size(), topt);
  const ClusterConfig cfg{3, 2};

  CostModelPolicy pref{"oracle", truth};
  const ClusterResult ref = simulate_reference(cfg, additive, trace, pref);
  CostModelPolicy pfleet{"oracle", truth};
  const ClusterResult fleet = simulate(cfg, additive, trace, pfleet);
  EXPECT_EQ(ref.log.str(truth.workloads), fleet.log.str(truth.workloads));
  EXPECT_NEAR(ref.mean_decision_regret, fleet.mean_decision_regret, 1e-9);
  EXPECT_EQ(fleet.failures, 0u);
  EXPECT_EQ(fleet.shed_jobs, 0u);
  EXPECT_EQ(fleet.completed_jobs, trace.size());
}

TEST(FaultFree, ReferenceRejectsFaultConfigs) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace = neutral_jobs({{0.0, 1.0}});
  CostModelPolicy p{"oracle", truth};

  ClusterConfig cfg{2, 2};
  cfg.faults = {{1.0, 0, FaultEvent::Kind::Down},
                {2.0, 0, FaultEvent::Kind::Up}};
  EXPECT_THROW(simulate_reference(cfg, additive, trace, p),
               std::invalid_argument);
  cfg = ClusterConfig{2, 2};
  cfg.migration.preempt = true;
  EXPECT_THROW(simulate_reference(cfg, additive, trace, p),
               std::invalid_argument);
  cfg = ClusterConfig{2, 2};
  cfg.admission.queue_limit = 4;
  EXPECT_THROW(simulate_reference(cfg, additive, trace, p),
               std::invalid_argument);
}

TEST(FaultFree, EngineValidatesFaultSchedules) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace = neutral_jobs({{0.0, 1.0}});
  CostModelPolicy p{"oracle", truth};

  ClusterConfig cfg{2, 2};
  cfg.faults = {{1.0, 5, FaultEvent::Kind::Down}};  // machine out of range
  EXPECT_THROW(simulate(cfg, additive, trace, p), std::invalid_argument);
  cfg.faults = {{2.0, 0, FaultEvent::Kind::Down},
                {1.0, 0, FaultEvent::Kind::Up}};  // unsorted
  EXPECT_THROW(simulate(cfg, additive, trace, p), std::invalid_argument);
  cfg.faults = {{1.0, 0, FaultEvent::Kind::Up}};  // Up without Down
  EXPECT_THROW(simulate(cfg, additive, trace, p), std::invalid_argument);

  // Non-finite fields. A NaN fault time used to reach the requeue
  // heap's top() while it was empty.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejects = [&](auto&& mutate) {
    ClusterConfig bad;
    mutate(bad);
    EXPECT_THROW(simulate(bad, additive, trace, p), std::invalid_argument);
  };
  rejects([&](ClusterConfig& c) {
    c.faults = {{nan, 0, FaultEvent::Kind::Down}};
  });
  rejects([&](ClusterConfig& c) {
    c.faults = {{1.0, 0, FaultEvent::Kind::Down},
                {inf, 0, FaultEvent::Kind::Up}};
  });
}

// --- deterministic fault replay -------------------------------------

TEST(FaultReplay, SameSeedSameAuditLog) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  FleetTraceOptions fopt;
  fopt.jobs = 1200;
  fopt.seed = 17;
  fopt.mean_interarrival = 0.5;
  fopt.class_shares = {3.0, 1.0};
  const auto trace = fleet_trace(truth.size(), fopt);

  ClusterConfig cfg{4, 2};
  FaultScheduleOptions sched;
  sched.seed = 99;
  sched.horizon = 400.0;
  sched.mtbf = 60.0;
  sched.mttr = 15.0;
  cfg.faults = fault_schedule(cfg.machines, sched);
  cfg.migration.preempt = true;
  cfg.admission.queue_limit = 40;

  const auto run = [&] {
    CostModelPolicy p{"oracle", truth};
    return simulate(cfg, additive, trace, p);
  };
  const ClusterResult a = run();
  const ClusterResult b = run();
  const std::string log = a.log.str(truth.workloads);
  EXPECT_EQ(log, b.log.str(truth.workloads));
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.shed_work, b.shed_work);
  EXPECT_EQ(a.mean_stretch, b.mean_stretch);

  EXPECT_GT(a.failures, 0u);
  EXPECT_GT(a.recoveries, 0u);
  EXPECT_GT(a.fault_kills, 0u);
  EXPECT_NE(log.find(" fail machine="), std::string::npos);
  EXPECT_NE(log.find(" recover machine="), std::string::npos);
  EXPECT_NE(log.find(" evict job="), std::string::npos);

  // Killed-and-completed jobs still satisfy the solo-normalized
  // invariants: lost work and backoff only stretch them.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const JobOutcome& o = a.outcomes[i];
    if (!o.completed()) continue;
    EXPECT_GE(o.stretch(trace[i]), 1.0 - 1e-12);
    EXPECT_GE(o.corun_slowdown(trace[i]), 1.0 - 1e-12);
  }
}

// --- retry backoff ---------------------------------------------------

// One machine, one solo job, two outages: finish times are exact
// solo-speed arithmetic. Each kill restarts the job from zero. The
// first kill (t=4) backs off 1, to t=5, past the t=4.5 recovery; the
// second (t=6) backs off 2, to t=8, past the t=6.5 recovery.
TEST(Retry, BackoffDelaysPastRecovery) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.faults = {{4.0, 0, FaultEvent::Kind::Down},
                {4.5, 0, FaultEvent::Kind::Up},
                {6.0, 0, FaultEvent::Kind::Down},
                {6.5, 0, FaultEvent::Kind::Up}};
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);

  ASSERT_TRUE(res.outcomes[0].completed());
  EXPECT_EQ(res.outcomes[0].retries, 2u);
  EXPECT_NEAR(res.outcomes[0].finish, 18.0, 1e-9);  // 8 + full 10 again
  EXPECT_NEAR(res.outcomes[0].start, 0.0, 1e-9);    // first placement
  EXPECT_NEAR(res.outcomes[0].stretch(trace[0]), 1.8, 1e-9);
  EXPECT_EQ(res.failures, 2u);
  EXPECT_EQ(res.recoveries, 2u);
  EXPECT_EQ(res.fault_kills, 2u);
  EXPECT_EQ(res.retries, 2u);
}

// Kills at t=1, 3 and 6 back off 1, 2 and 4; the fourth, at t=11,
// finds the retry budget spent and sheds the job with all its work.
TEST(Retry, ExhaustedRetriesShed) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  for (const double down : {1.0, 3.0, 6.0, 11.0})
    cfg.faults.insert(cfg.faults.end(),
                      {{down, 0, FaultEvent::Kind::Down},
                       {down + 0.5, 0, FaultEvent::Kind::Up}});
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);

  EXPECT_FALSE(res.outcomes[0].completed());
  EXPECT_TRUE(res.outcomes[0].shed);
  EXPECT_EQ(res.outcomes[0].retries, kMaxRetries);
  EXPECT_EQ(res.fault_kills, kMaxRetries + 1);
  EXPECT_EQ(res.shed_jobs, 1u);
  EXPECT_NEAR(res.shed_work, 10.0, 1e-9);  // restart-from-zero loss
  EXPECT_EQ(res.completed_jobs, 0u);
  EXPECT_NE(res.log.str(truth.workloads).find("t=11.000000 shed job=0"),
            std::string::npos);
}

// --- down machines -------------------------------------------------

/// Picks the first machine that reports a free slot, as a policy that
/// ignores kth_open might; checks that view() agrees with free_slots().
class FirstFreePolicy final : public PlacementPolicy {
 public:
  std::string name() const override { return "first-free"; }
  std::size_t place(const JobSpec&, const ClusterView& cluster) override {
    for (std::size_t m = 0; m < cluster.machines(); ++m) {
      EXPECT_EQ(cluster.view(m).free_slots, cluster.free_slots(m));
      if (cluster.free_slots(m) > 0) return m;
    }
    ADD_FAILURE() << "no machine reports a free slot";
    return 0;
  }
};

/// Always picks machine 0.
class FirstMachinePolicy final : public PlacementPolicy {
 public:
  std::string name() const override { return "machine-0"; }
  std::size_t place(const JobSpec&, const ClusterView&) override { return 0; }
};

// Machine 0 is down from t=1 to t=100, so it has no free slot: jobs 0
// and 1 go to machine 1, and jobs 2 and 3 wait for machine 0 to come
// back instead of running on it while it is down.
TEST(DownMachine, ReportsNoFreeSlots) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace =
      neutral_jobs({{2.0, 200.0}, {3.0, 200.0}, {4.0, 200.0}, {5.0, 200.0}});
  ClusterConfig cfg{2, 2};
  cfg.faults = {{1.0, 0, FaultEvent::Kind::Down},
                {100.0, 0, FaultEvent::Kind::Up}};
  FirstFreePolicy p;
  const ClusterResult res = simulate(cfg, additive, trace, p);

  ASSERT_EQ(res.completed_jobs, 4u);
  const std::uint32_t machine[] = {1, 1, 0, 0};
  const double start[] = {2.0, 3.0, 100.0, 100.0};
  const double finish[] = {202.0, 203.0, 300.0, 300.0};
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(res.outcomes[j].machine, machine[j]) << "job " << j;
    EXPECT_NEAR(res.outcomes[j].start, start[j], 1e-9) << "job " << j;
    EXPECT_NEAR(res.outcomes[j].finish, finish[j], 1e-9) << "job " << j;
  }
  EXPECT_EQ(res.fault_kills, 0u);
}

TEST(DownMachine, PlacingOnOneIsRejected) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace = neutral_jobs({{2.0, 10.0}});
  ClusterConfig cfg{2, 2};
  cfg.faults = {{1.0, 0, FaultEvent::Kind::Down},
                {100.0, 0, FaultEvent::Kind::Up}};
  FirstMachinePolicy p;
  EXPECT_THROW(simulate(cfg, additive, trace, p), std::logic_error);
}

// --- preemptive migration -------------------------------------------

TEST(Migration, HighPriorityPreemptsLowestClass) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  // Two best-effort residents fill the only machine; a class-1 job
  // arrives at t=1.
  std::vector<JobSpec> trace = neutral_jobs({{0.0, 100.0}, {0.0, 100.0}});
  JobSpec hp;
  hp.id = 2;
  hp.type = kNeutral;
  hp.arrival = 1.0;
  hp.work = 10.0;
  hp.priority = 1;
  trace.push_back(hp);

  ClusterConfig cfg{1, 2};
  cfg.migration.preempt = true;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);

  EXPECT_EQ(res.migrations, 1u);
  EXPECT_EQ(res.outcomes[0].evictions, 1u);  // lowest slot is the victim
  EXPECT_EQ(res.outcomes[1].evictions, 0u);
  EXPECT_NEAR(res.outcomes[2].start, 1.0, 1e-9)
      << "the class-1 job must start at arrival, not after a drain";
  EXPECT_NEAR(res.outcomes[2].finish, 11.0, 1e-9);
  // The victim loses its 1 unit of progress (restart-from-zero) and
  // re-places when the class-1 job finishes.
  ASSERT_TRUE(res.outcomes[0].completed());
  EXPECT_NEAR(res.outcomes[0].finish, 111.0, 1e-9);
  EXPECT_EQ(res.outcomes[0].retries, 0u) << "eviction is not a failure kill";
  EXPECT_NE(res.log.str(truth.workloads).find(" evict job=0"),
            std::string::npos);
}

TEST(Migration, NeverEvictsEqualOrHigherClass) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  std::vector<JobSpec> trace =
      neutral_jobs({{0.0, 100.0}, {0.0, 100.0}}, /*priority=*/1);
  JobSpec hp;
  hp.id = 2;
  hp.type = kNeutral;
  hp.arrival = 1.0;
  hp.work = 10.0;
  hp.priority = 1;
  trace.push_back(hp);

  ClusterConfig cfg{1, 2};
  cfg.migration.preempt = true;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);
  EXPECT_EQ(res.migrations, 0u);
  EXPECT_NEAR(res.outcomes[2].start, 100.0, 1e-9)
      << "equal-class residents must not be preempted";
}

// Three machines, three classes, every machine full. Machines 0-1 hold
// only class 1; machine 2 holds class 1 in slot 0 and the fleet's only
// class-0 resident in slot 1. Victims go lowest class first, then
// lowest machine, then lowest slot of that class: the first class-2
// arrival takes machine 2's class-0 slot, not machine 0's.
TEST(Migration, VictimIsLowestClassThenMachineThenSlot) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  std::vector<JobSpec> trace = neutral_jobs(
      {{0.0, 100.0}, {0.0, 100.0}, {0.0, 100.0}, {0.0, 100.0}, {0.0, 100.0},
       {0.0, 100.0}, {1.0, 10.0}, {2.0, 10.0}},
      /*priority=*/1);
  trace[5].priority = 0;
  trace[6].priority = 2;
  trace[7].priority = 2;

  ClusterConfig cfg{3, 2};
  cfg.migration.preempt = true;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);

  // Neutral co-runs price at 0, so the oracle fills machines in order.
  std::vector<std::size_t> placed_on;
  for (const TraceEvent& e : res.log.events)
    if (e.kind == TraceEvent::Kind::Place) placed_on.push_back(e.machine);
  ASSERT_GE(placed_on.size(), 8u);
  EXPECT_EQ(placed_on[4], 2u);
  EXPECT_EQ(placed_on[5], 2u) << "job 5 must sit in machine 2's slot 1";

  std::vector<const TraceEvent*> evicts;
  for (const TraceEvent& e : res.log.events)
    if (e.kind == TraceEvent::Kind::Evict) evicts.push_back(&e);
  ASSERT_EQ(evicts.size(), 2u);
  EXPECT_EQ(res.migrations, 2u);
  EXPECT_EQ(evicts[0]->job, 5u) << "the class-0 resident goes first";
  EXPECT_EQ(evicts[0]->machine, 2u);
  EXPECT_NEAR(evicts[0]->time, 1.0, 1e-12);
  EXPECT_EQ(evicts[1]->job, 0u) << "then machine 0's lowest class-1 slot";
  EXPECT_EQ(evicts[1]->machine, 0u);
  EXPECT_NEAR(evicts[1]->time, 2.0, 1e-12);
  EXPECT_EQ(res.outcomes[6].machine, 2u);
  EXPECT_EQ(res.outcomes[7].machine, 0u);
  for (std::size_t j : {1u, 2u, 3u, 4u, 6u, 7u})
    EXPECT_EQ(res.outcomes[j].evictions, 0u) << "job " << j;
}

// The victim index must forget a failed machine's residents. Machine 1
// dies holding the only class-0 resident (job 2), so while it is down a
// waiting class-1 job finds no victim; once it recovers and job 2
// places there again, the next class-1 arrival evicts it.
TEST(Migration, FailedMachineYieldsNoVictimUntilReplaced) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  std::vector<JobSpec> trace = neutral_jobs(
      {{0.0, 100.0}, {0.0, 100.0}, {0.0, 100.0}, {0.0, 100.0}, {4.0, 10.0}},
      /*priority=*/1);
  trace[2].priority = 0;

  ClusterConfig cfg{2, 2};
  cfg.migration.preempt = true;
  cfg.faults = {{1.0, 1, FaultEvent::Kind::Down},
                {3.0, 1, FaultEvent::Kind::Up}};
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);

  // Job 2 in machine 1's slot 0, job 3 beside it; the failure kills
  // both and they requeue at t=2, while machine 0 is still full.
  EXPECT_EQ(res.fault_kills, 2u);
  EXPECT_EQ(res.outcomes[2].retries, 1u);
  EXPECT_EQ(res.outcomes[3].retries, 1u);
  std::vector<const TraceEvent*> evicts;
  for (const TraceEvent& e : res.log.events)
    if (e.kind == TraceEvent::Kind::Evict && e.time > 1.0)
      evicts.push_back(&e);
  ASSERT_EQ(evicts.size(), 1u)
      << "no victim while the class-0 job waits, one once it is back";
  EXPECT_EQ(res.migrations, 1u);
  EXPECT_EQ(evicts[0]->job, 2u);
  EXPECT_EQ(evicts[0]->machine, 1u);
  EXPECT_NEAR(evicts[0]->time, 4.0, 1e-12);
  EXPECT_EQ(res.outcomes[2].evictions, 1u);
  EXPECT_NEAR(res.outcomes[3].start, 0.0, 1e-12);
  EXPECT_EQ(res.outcomes[3].machine, 1u) << "job 3 re-places on recovery";
  EXPECT_EQ(res.outcomes[4].machine, 1u);
  EXPECT_NEAR(res.outcomes[4].start, 4.0, 1e-12);
}

// The audit log as an independent oracle for the victim index: replay
// each machine's residents in slot order from the log and check every
// migration's victim against a brute-force scan of the whole fleet,
// over seeded configs with faults, migration and admission control.
TEST(Migration, ReplayedVictimsMatchBruteForceScan) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  std::size_t migrations = 0, kills = 0;
  std::vector<std::size_t> victims_by_class(3, 0);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ClusterConfig cfg;
    cfg.machines = 8 + (seed * 7) % 25;
    cfg.slots = 2 + seed % 2;
    cfg.migration.preempt = true;
    cfg.admission.queue_limit = cfg.machines;
    FleetTraceOptions fopt;
    fopt.jobs = 300;
    fopt.seed = seed;
    fopt.class_shares = {0.6, 0.25, 0.15};
    // About 140% of the fleet's slot capacity (mean work 8).
    fopt.mean_interarrival =
        8.0 / static_cast<double>(cfg.machines * cfg.slots) / 1.4;
    const auto trace = fleet_trace(truth.size(), fopt);
    FaultScheduleOptions sched;
    sched.seed = seed + 100;
    sched.horizon = trace.back().arrival;
    sched.mtbf = sched.horizon / 2.0;
    sched.mttr = sched.horizon / 20.0;
    cfg.faults = fault_schedule(cfg.machines, sched);

    ClusterResult res;
    if (seed % 2 == 0) {
      CostModelPolicy p{"oracle", truth};
      res = simulate(cfg, additive, trace, p);
    } else {
      RandomPolicy p{seed};
      res = simulate(cfg, additive, trace, p);
    }

    const auto& events = res.log.events;
    std::vector<std::vector<std::size_t>> on(cfg.machines);
    std::vector<std::size_t> killed;  // residents of the latest Fail
    const TraceEvent* fail = nullptr;
    std::size_t seen = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& e = events[i];
      std::vector<std::size_t>& slots = on[e.machine];
      const auto pos = std::find(slots.begin(), slots.end(), e.job);
      switch (e.kind) {
        case TraceEvent::Kind::Place:
          ASSERT_LT(slots.size(), cfg.slots) << "seed " << seed;
          slots.push_back(e.job);
          break;
        case TraceEvent::Kind::Finish:
          ASSERT_NE(pos, slots.end()) << "seed " << seed << " event " << i;
          slots.erase(pos);
          break;
        case TraceEvent::Kind::Fail:
          fail = &e;
          killed = slots;
          slots.clear();
          break;
        case TraceEvent::Kind::Evict: {
          if (pos == slots.end()) {
            // A fault kill: the job died with its machine's Fail.
            ASSERT_TRUE(fail && fail->time == e.time &&
                        fail->machine == e.machine &&
                        std::count(killed.begin(), killed.end(), e.job) == 1)
                << "seed " << seed << " event " << i;
            ++kills;
            break;
          }
          // A migration: the next line places the waiting top class on
          // the slot it freed.
          ASSERT_LT(i + 1, events.size());
          const TraceEvent& next = events[i + 1];
          ASSERT_EQ(next.kind, TraceEvent::Kind::Place) << "seed " << seed;
          ASSERT_EQ(next.machine, e.machine) << "seed " << seed;
          const unsigned top = trace[next.job].priority;
          std::size_t bm = cfg.machines, bs = 0;
          unsigned bc = top;
          for (std::size_t m = 0; m < cfg.machines; ++m)
            for (std::size_t s = 0; s < on[m].size(); ++s)
              if (trace[on[m][s]].priority < bc) {
                bc = trace[on[m][s]].priority;
                bm = m;
                bs = s;
              }
          const auto slot = static_cast<std::size_t>(pos - slots.begin());
          EXPECT_TRUE(bm == e.machine && bs == slot)
              << "seed " << seed << " event " << i << ": evicted machine "
              << e.machine << " slot " << slot << ", brute force says "
              << bm << " slot " << bs;
          ++victims_by_class[trace[e.job].priority];
          ++seen;
          slots.erase(pos);
          break;
        }
        default:
          break;
      }
    }
    EXPECT_EQ(seen, res.migrations) << "seed " << seed;
    migrations += seen;
  }
  EXPECT_GT(kills, 0u);
  EXPECT_GT(victims_by_class[0], 0u);
  EXPECT_GT(victims_by_class[1], 0u);
  EXPECT_EQ(victims_by_class[2], 0u) << "the top class is never a victim";
  EXPECT_GT(migrations, 100u);
}

// --- admission control ----------------------------------------------

TEST(Admission, ShedBillingConservesWork) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace = neutral_jobs(
      {{0.0, 50.0}, {0.1, 50.0}, {0.2, 50.0}, {0.3, 50.0}});
  ClusterConfig cfg{1, 2};
  cfg.admission.queue_limit = 1;  // one waiter is already overload
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);

  // Jobs 0/1 run, job 2 waits, job 3 arrives over the limit and sheds.
  EXPECT_EQ(res.shed_jobs, 1u);
  EXPECT_NEAR(res.shed_work, 50.0, 1e-9);
  EXPECT_TRUE(res.outcomes[3].shed);
  EXPECT_EQ(res.completed_jobs, 3u);
  ASSERT_EQ(res.class_stats.size(), 1u);
  const ClassStats& cs = res.class_stats[0];
  EXPECT_EQ(cs.jobs, 4u);
  EXPECT_EQ(cs.shed, 1u);
  EXPECT_NEAR(cs.work_arrived, 200.0, 1e-9);
  EXPECT_NEAR(cs.work_completed, 150.0, 1e-9);
  // Billing identity: every arrived unit either completed or was shed.
  EXPECT_NEAR(cs.work_arrived, cs.work_completed + res.shed_work, 1e-9);
  EXPECT_NEAR(cs.goodput * res.makespan, cs.work_completed, 1e-9);
  EXPECT_NE(res.log.str(truth.workloads).find(" shed job=3"),
            std::string::npos);
}

TEST(Admission, HighClassesAreNeverShed) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  std::vector<JobSpec> trace = neutral_jobs(
      {{0.0, 50.0}, {0.1, 50.0}, {0.2, 50.0}});
  JobSpec hp;
  hp.id = 3;
  hp.type = kNeutral;
  hp.arrival = 0.3;
  hp.work = 50.0;
  hp.priority = 1;
  trace.push_back(hp);

  ClusterConfig cfg{1, 2};
  cfg.admission.queue_limit = 1;
  cfg.admission.shed_below = 1;  // only class 0 is sheddable
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);
  EXPECT_FALSE(res.outcomes[3].shed);
  EXPECT_TRUE(res.outcomes[3].completed());
  ASSERT_EQ(res.class_stats.size(), 2u);
  EXPECT_EQ(res.class_stats[1].shed, 0u);
}

// --- graceful degradation end to end --------------------------------

// The acceptance-shaped comparison at test scale: under overload plus
// machine churn, admission control + migration must buy the
// high-priority class strictly more goodput and less stretch than the
// no-shed baseline.
TEST(Degradation, ProtectionLiftsHighPriorityGoodput) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  FleetTraceOptions fopt;
  fopt.jobs = 2000;
  fopt.seed = 21;
  fopt.mean_interarrival = 0.45;  // well past the fleet's capacity
  fopt.class_shares = {3.0, 1.0};
  const auto trace = fleet_trace(truth.size(), fopt);

  FaultScheduleOptions sched;
  sched.seed = 13;
  sched.horizon = 500.0;
  sched.mtbf = 120.0;
  sched.mttr = 30.0;

  ClusterConfig base{6, 2};
  base.faults = fault_schedule(base.machines, sched);

  ClusterConfig prot = base;
  prot.migration.preempt = true;
  prot.admission.queue_limit = 30;
  prot.admission.shed_below = 1;

  CostModelPolicy pb{"oracle", truth};
  const ClusterResult rb = simulate(base, additive, trace, pb);
  CostModelPolicy pp{"oracle", truth};
  const ClusterResult rp = simulate(prot, additive, trace, pp);

  ASSERT_EQ(rb.class_stats.size(), 2u);
  ASSERT_EQ(rp.class_stats.size(), 2u);
  EXPECT_EQ(rb.migrations, 0u) << "baseline must not migrate";
  EXPECT_GT(rp.shed_jobs, 0u) << "protection must actually shed load";
  EXPECT_GT(rp.class_stats[1].goodput, rb.class_stats[1].goodput)
      << "admission control + migration must lift class-1 goodput";
  EXPECT_LT(rp.class_stats[1].mean_stretch, rb.class_stats[1].mean_stretch)
      << "class-1 jobs must also wait less";
  EXPECT_EQ(rp.class_stats[1].shed, 0u);
}

// --- golden grid over the engine's config space ---------------------

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// One point of the grid: slots x faults x protection x LC jobs, plus a
// regret-sampling cell. Protection 0 = none, 1 = migration + shed. The
// 3-slot cells place with a RandomPolicy seeded by `seed`.
struct GridCell {
  std::size_t slots;
  bool faults;
  int protection;
  bool lc;
  std::size_t regret_sample;
  std::uint64_t seed;
};

// What a cell pins: FNV-1a of the audit log plus the billed scalars,
// and the protection counters.
struct GridPin {
  std::uint64_t digest;
  std::size_t completed, shed, migrations, fault_kills;
  std::uint64_t fallbacks;
};

std::vector<GridCell> grid_cells() {
  // The seeds skip two values after every four cells: the pins were
  // taken when the grid also had a deferral arm there, and a cell's
  // seed was its position.
  std::vector<GridCell> cells;
  std::uint64_t seed = 0;
  for (const std::size_t slots : {2u, 3u})
    for (const bool faults : {false, true}) {
      for (const int protection : {0, 1})
        for (const bool lc : {false, true})
          cells.push_back({slots, faults, protection, lc, 1, seed++});
      seed += 2;
    }
  cells.push_back({3, true, 1, true, 7, seed});
  return cells;
}

std::vector<JobSpec> grid_trace(const GridCell& c) {
  FleetTraceOptions fopt;
  fopt.jobs = 400;
  fopt.seed = 29;
  fopt.mean_interarrival = 0.4;
  fopt.class_shares = {0.7, 0.2, 0.1};
  auto trace = fleet_trace(synthetic_truth().size(), fopt);
  if (c.lc)
    for (std::size_t i = 0; i < trace.size(); i += 5) trace[i].slo_p99 = 1.3;
  return trace;
}

ClusterResult run_grid_cell(const GridCell& c,
                            const std::vector<JobSpec>& trace) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  ClusterConfig cfg;
  cfg.machines = 8;
  cfg.slots = c.slots;
  cfg.regret_sample = c.regret_sample;
  if (c.faults) {
    FaultScheduleOptions sched;
    sched.seed = 5;
    sched.horizon = 160.0;
    sched.mtbf = 60.0;
    sched.mttr = 10.0;
    cfg.faults = fault_schedule(cfg.machines, sched);
  }
  if (c.protection > 0) {
    cfg.migration.preempt = true;
    cfg.admission.queue_limit = 10;
  }
  if (c.slots == 2) {
    CostModelPolicy p{"oracle", truth};
    return simulate(cfg, additive, trace, p);
  }
  RandomPolicy p{c.seed};
  return simulate(cfg, additive, trace, p);
}

// The byte-identity net over faults x admission x migration x
// priorities x SLOs x slots x regret sampling: every cell's audit log,
// billed scalars and protection counters are pinned, and the
// accounting invariants are checked on each.
TEST(EngineGrid, GoldenDigestsAndInvariants) {
  const std::vector<GridPin> pins = {
      {0xfc9213cf0d60a997ull, 400, 0, 0, 0, 0},
      {0xac51e5d95879733aull, 400, 0, 0, 0, 0},
      {0x2668ba55f9693540ull, 232, 168, 127, 0, 0},
      {0xc1b6dc085e15e3bcull, 232, 168, 127, 0, 0},
      {0xbf136a88fa9f7379ull, 400, 0, 0, 32, 0},
      {0x63bd566f9b5418d9ull, 400, 0, 0, 32, 0},
      {0x6a3830d164c0d93aull, 179, 221, 128, 32, 0},
      {0x4b06549321d60f5cull, 179, 221, 128, 32, 0},
      {0x9071365bd345759bull, 400, 0, 0, 0, 3681},
      {0x117787022756c92ull, 400, 0, 0, 0, 3867},
      {0x769ff827e9d819e1ull, 293, 107, 114, 0, 3645},
      {0x320f227c9b628c93ull, 291, 109, 113, 0, 3988},
      {0xe33c9abafe7417a5ull, 400, 0, 0, 47, 3684},
      {0x509ff3e860cb2316ull, 400, 0, 0, 47, 3957},
      {0x29e2772570724df3ull, 212, 188, 137, 47, 3330},
      {0xe2f975dd14261bddull, 218, 182, 139, 48, 3636},
      {0xd2f5ff13635c00c5ull, 211, 189, 139, 47, 2294},
  };
  const auto names = synthetic_truth().workloads;
  const auto cells = grid_cells();
  ASSERT_EQ(pins.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::vector<JobSpec> trace = grid_trace(cells[i]);
    const ClusterResult res = run_grid_cell(cells[i], trace);
    char scalars[256];
    std::snprintf(scalars, sizeof scalars,
                  "regret=%.12g lc=%.12g shed_work=%.12g stretch=%.12g "
                  "makespan=%.12g billed=%zu lc_billed=%zu slo=%zu",
                  res.mean_decision_regret, res.mean_lc_tail_regret,
                  res.shed_work, res.mean_stretch, res.makespan,
                  res.billed_decisions,
                  res.lc_jobs > 0 ? res.billed_decisions : std::size_t{0},
                  res.slo_violation_decisions);
    const GridPin got{fnv1a(res.log.str(names) + scalars), res.completed_jobs,
                      res.shed_jobs, res.migrations, res.fault_kills,
                      res.pairwise_fallbacks};
    const GridPin& want = pins[i];
    EXPECT_TRUE(got.digest == want.digest && got.completed == want.completed &&
                got.shed == want.shed && got.migrations == want.migrations &&
                got.fault_kills == want.fault_kills &&
                got.fallbacks == want.fallbacks)
        << "cell " << i << " is now {0x" << std::hex << got.digest << std::dec
        << "ull, " << got.completed << ", " << got.shed << ", "
        << got.migrations << ", " << got.fault_kills << ", " << got.fallbacks
        << "},";

    std::size_t arrivals = 0, completed = 0, shed = 0;
    for (const TraceEvent& e : res.log.events)
      if (e.kind == TraceEvent::Kind::Arrive) ++arrivals;
    for (std::size_t j = 0; j < trace.size(); ++j) {
      const JobOutcome& o = res.outcomes[j];
      EXPECT_NE(o.completed(), o.shed)
          << "cell " << i << " job " << trace[j].id;
      if (o.completed()) {
        EXPECT_GE(o.stretch(trace[j]), 1.0 - 1e-9);
      }
    }
    for (const ClassStats& cs : res.class_stats) {
      arrivals -= cs.jobs;
      completed += cs.completed;
      shed += cs.shed;
    }
    EXPECT_EQ(arrivals, 0u) << "cell " << i;
    EXPECT_EQ(res.completed_jobs + res.shed_jobs, res.outcomes.size());
    EXPECT_EQ(completed, res.completed_jobs) << "cell " << i;
    EXPECT_EQ(shed, res.shed_jobs) << "cell " << i;
  }
}

}  // namespace
}  // namespace coperf::cluster
