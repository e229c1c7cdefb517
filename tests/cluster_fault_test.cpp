// Fault-injection and graceful-degradation tests: the fault schedule
// generator, fault-free byte-identity against the reference loop,
// deterministic fault replay, retry/backoff and work-loss accounting,
// preemptive migration ordering, and admission-control shed billing.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster_fixtures.hpp"
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
  cfg.faults.clear();
  cfg.retry.checkpoint = 1.5;
  EXPECT_THROW(simulate(cfg, additive, trace, p), std::invalid_argument);
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
  for (const JobOutcome& o : a.outcomes) {
    if (!o.completed()) continue;
    EXPECT_GE(o.stretch(), 1.0 - 1e-12);
    EXPECT_GE(o.corun_slowdown(), 1.0 - 1e-12);
  }
}

// --- retry/backoff and the work-loss model --------------------------

// One machine, one solo job, one outage: finish times are exact
// solo-speed arithmetic, so the work-loss model is pinned numerically.
// Down at t=4 kills the job (4 of 10 units executed); backoff 1 makes
// it ready at t=5 but the machine only recovers at t=6.
TEST(Retry, WorkLossModelRestartFromZero) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.faults = {{4.0, 0, FaultEvent::Kind::Down},
                {6.0, 0, FaultEvent::Kind::Up}};
  cfg.retry.backoff = 1.0;
  cfg.retry.checkpoint = 0.0;  // the whole attempt is lost
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);

  ASSERT_TRUE(res.outcomes[0].completed());
  EXPECT_EQ(res.outcomes[0].retries, 1u);
  EXPECT_NEAR(res.outcomes[0].finish, 16.0, 1e-9);  // 6 + full 10 again
  EXPECT_NEAR(res.outcomes[0].start, 0.0, 1e-9);    // first placement
  EXPECT_NEAR(res.outcomes[0].stretch(), 1.6, 1e-9);
  EXPECT_EQ(res.failures, 1u);
  EXPECT_EQ(res.recoveries, 1u);
  EXPECT_EQ(res.fault_kills, 1u);
}

TEST(Retry, WorkLossModelPerfectCheckpoint) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.faults = {{4.0, 0, FaultEvent::Kind::Down},
                {6.0, 0, FaultEvent::Kind::Up}};
  cfg.retry.backoff = 1.0;
  cfg.retry.checkpoint = 1.0;  // only in-flight time is lost
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);

  ASSERT_TRUE(res.outcomes[0].completed());
  EXPECT_NEAR(res.outcomes[0].finish, 12.0, 1e-9);  // 6 + remaining 6
  EXPECT_NEAR(res.outcomes[0].stretch(), 1.2, 1e-9);
}

TEST(Retry, BackoffDelaysPastRecovery) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.faults = {{4.0, 0, FaultEvent::Kind::Down},
                {6.0, 0, FaultEvent::Kind::Up}};
  cfg.retry.backoff = 5.0;  // ready at t=9, after the t=6 recovery
  cfg.retry.checkpoint = 1.0;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);
  EXPECT_NEAR(res.outcomes[0].finish, 15.0, 1e-9);  // 9 + remaining 6
}

TEST(Retry, ExhaustedRetriesShed) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.faults = {{4.0, 0, FaultEvent::Kind::Down},
                {6.0, 0, FaultEvent::Kind::Up}};
  cfg.retry.max_retries = 0;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);

  EXPECT_FALSE(res.outcomes[0].completed());
  EXPECT_TRUE(res.outcomes[0].shed);
  EXPECT_EQ(res.shed_jobs, 1u);
  EXPECT_NEAR(res.shed_work, 10.0, 1e-9);  // restart-from-zero loss
  EXPECT_EQ(res.completed_jobs, 0u);
  EXPECT_NE(res.log.str(truth.workloads).find(" shed job=0"),
            std::string::npos);
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

TEST(Admission, DeferThenShedUnderPersistentOverload) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace = neutral_jobs(
      {{0.0, 50.0}, {0.1, 50.0}, {0.2, 50.0}, {0.3, 50.0}});
  ClusterConfig cfg{1, 2};
  cfg.admission.queue_limit = 1;
  cfg.admission.defer_delay = 10.0;
  cfg.admission.max_defers = 1;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);

  // Job 3 defers once (until t=10.3, still overloaded: job 2 waits
  // until the first completion at t=50) and then sheds.
  EXPECT_EQ(res.outcomes[3].defers, 1u);
  EXPECT_TRUE(res.outcomes[3].shed);
  const std::string log = res.log.str(truth.workloads);
  EXPECT_NE(log.find(" defer job=3"), std::string::npos);
  EXPECT_NE(log.find(" shed job=3"), std::string::npos);
}

TEST(Admission, DeferredJobAdmittedOnceLoadClears) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto trace = neutral_jobs(
      {{0.0, 10.0}, {0.1, 10.0}, {0.2, 10.0}, {0.3, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.admission.queue_limit = 1;
  cfg.admission.defer_delay = 25.0;  // re-enters at t=25.3: queue empty
  cfg.admission.max_defers = 3;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, additive, trace, p);
  EXPECT_EQ(res.outcomes[3].defers, 1u);
  EXPECT_FALSE(res.outcomes[3].shed);
  ASSERT_TRUE(res.outcomes[3].completed());
  EXPECT_EQ(res.shed_jobs, 0u);
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

}  // namespace
}  // namespace coperf::cluster
