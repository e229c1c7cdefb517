// Cluster-scheduler tests: trace/simulator determinism (same seed =>
// byte-identical audit log), queueing semantics, interference-aware
// placement, online refinement converging on the truth, and the
// end-to-end regret ordering on the 8-workload Tiny ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "cluster/cluster.hpp"
#include "cluster_fixtures.hpp"
#include "cluster_reference.hpp"
#include "harness/grouptruth.hpp"
#include "harness/matrix.hpp"
#include "harness/plan.hpp"
#include "predict/predicted_matrix.hpp"

namespace coperf::cluster {
namespace {

TEST(Trace, SyntheticTraceIsDeterministic) {
  TraceOptions opt;
  opt.jobs = 200;
  opt.seed = 5;
  const auto a = synthetic_trace(4, opt);
  const auto b = synthetic_trace(4, opt);
  EXPECT_EQ(a, b);
  opt.seed = 6;
  EXPECT_NE(a, synthetic_trace(4, opt));
  ASSERT_EQ(a.size(), 200u);
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_GE(a[i].arrival, a[i - 1].arrival) << "arrivals must be sorted";
  for (const JobSpec& j : a) {
    EXPECT_LT(j.type, 4u);
    EXPECT_GT(j.work, 0.0);
  }
}

TEST(Trace, RejectsDegenerateOptions) {
  EXPECT_THROW(synthetic_trace(0, {}), std::invalid_argument);
  TraceOptions bad;
  bad.mean_interarrival = 0.0;
  EXPECT_THROW(synthetic_trace(2, bad), std::invalid_argument);
  // Non-finite means, which a plain `<= 0` check lets through.
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    bad = {};
    bad.mean_interarrival = v;
    EXPECT_THROW(synthetic_trace(2, bad), std::invalid_argument);
    bad = {};
    bad.mean_work = v;
    EXPECT_THROW(synthetic_trace(2, bad), std::invalid_argument);
  }
}

// The acceptance criterion: a 1000-job arrival trace simulates
// deterministically -- same seed => byte-identical trace output --
// under every policy family, including the stateful online one.
TEST(Cluster, ThousandJobTraceIsByteIdenticalAcrossRuns) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto sigs = synthetic_sigs();
  TraceOptions topt;
  topt.jobs = 1000;
  topt.seed = 3;
  topt.mean_interarrival = 1.2;
  const auto trace = synthetic_trace(truth.size(), topt);
  ClusterConfig cfg;
  cfg.machines = 3;
  cfg.slots = 2;

  const auto run_with = [&](int which) {
    switch (which) {
      case 0: {
        RandomPolicy p{99};
        return simulate(cfg, additive, trace, p).log.str(truth.workloads);
      }
      case 1: {
        CostModelPolicy p{"oracle", truth};
        return simulate(cfg, additive, trace, p).log.str(truth.workloads);
      }
      default: {
        OnlineRefinedPolicy p{"online", distilled_model(truth, sigs), sigs};
        return simulate(cfg, additive, trace, p).log.str(truth.workloads);
      }
    }
  };
  for (int which = 0; which < 3; ++which) {
    const std::string first = run_with(which);
    const std::string second = run_with(which);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second) << "policy family " << which
                             << " is not replay-deterministic";
  }
}

TEST(Cluster, EveryJobArrivesPlacesAndFinishesOnce) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  TraceOptions topt;
  topt.jobs = 300;
  topt.seed = 8;
  const auto trace = synthetic_trace(truth.size(), topt);
  RandomPolicy policy{1};
  const auto res = simulate({2, 3}, additive, trace, policy);
  std::size_t arrives = 0, places = 0, finishes = 0;
  for (const TraceEvent& e : res.log.events) {
    if (e.kind == TraceEvent::Kind::Arrive) ++arrives;
    if (e.kind == TraceEvent::Kind::Place) ++places;
    if (e.kind == TraceEvent::Kind::Finish) ++finishes;
  }
  EXPECT_EQ(arrives, trace.size());
  EXPECT_EQ(places, trace.size());
  EXPECT_EQ(finishes, trace.size());
  ASSERT_EQ(res.outcomes.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const JobOutcome& o = res.outcomes[i];
    EXPECT_GE(o.start, trace[i].arrival);
    EXPECT_GT(o.finish, o.start);
    EXPECT_GE(o.stretch(trace[i]), 1.0 - 1e-9);
    EXPECT_GE(o.corun_slowdown(trace[i]), 1.0 - 1e-9);
    EXPECT_LT(o.machine, 2u);
  }
  EXPECT_GE(res.mean_stretch, 1.0 - 1e-9);
  EXPECT_GT(res.makespan, 0.0);
}

TEST(Cluster, JobsQueueWhenTheClusterIsFull) {
  // One 2-slot machine, three simultaneous harmonious unit jobs: the
  // third must wait for a slot and start exactly when the first
  // completes at t = 1.
  harness::CorunMatrix truth;
  truth.workloads = {"idle"};
  truth.solo_cycles = {1};
  truth.normalized = {{1.0}};
  harness::MatrixTruth additive{truth};
  std::vector<JobSpec> trace = {{0, 0, 0.0, 1.0}, {1, 0, 0.0, 1.0},
                                {2, 0, 0.0, 1.0}};
  CostModelPolicy policy{"oracle", truth};
  const auto res = simulate({1, 2}, additive, trace, policy);
  EXPECT_DOUBLE_EQ(res.outcomes[0].start, 0.0);
  EXPECT_DOUBLE_EQ(res.outcomes[1].start, 0.0);
  EXPECT_DOUBLE_EQ(res.outcomes[2].start, 1.0);
  EXPECT_DOUBLE_EQ(res.outcomes[2].finish, 2.0);
  EXPECT_DOUBLE_EQ(res.outcomes[2].stretch(trace[2]), 2.0);
}

TEST(Cluster, OracleKeepsTheVictimOffTheHogsMachine) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  // hog arrives first, then the victim, with an empty second machine
  // available: the truth-driven policy must not co-locate them.
  std::vector<JobSpec> trace = {{0, 0, 0.0, 10.0}, {1, 1, 0.1, 10.0}};
  CostModelPolicy oracle{"oracle", truth};
  const auto res = simulate({2, 2}, additive, trace, oracle);
  EXPECT_NE(res.outcomes[0].machine, res.outcomes[1].machine)
      << "oracle paired the victim (2.2x) with the hog despite a free machine";
}

TEST(Cluster, SimulateValidatesItsInput) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  RandomPolicy policy{1};
  const std::vector<JobSpec> ok = {{0, 0, 0.0, 1.0}};
  EXPECT_THROW(simulate({0, 2}, additive, ok, policy), std::invalid_argument);
  EXPECT_THROW(simulate({2, 1}, additive, ok, policy), std::invalid_argument);
  EXPECT_THROW(simulate({2, 2}, additive, {{0, 9, 0.0, 1.0}}, policy),
               std::invalid_argument);
  EXPECT_THROW(simulate({2, 2}, additive, {{0, 0, 0.0, 0.0}}, policy),
               std::invalid_argument);
  EXPECT_THROW(
      simulate({2, 2}, additive, {{0, 0, 5.0, 1.0}, {1, 0, 1.0, 1.0}}, policy),
      std::invalid_argument);
  // Non-finite fields: every range check is a comparison, which NaN
  // passes silently unless it is rejected explicitly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const JobSpec& bad : {JobSpec{0, 0, 0.0, nan}, JobSpec{0, 0, 0.0, inf},
                             JobSpec{0, 0, nan, 1.0}, JobSpec{0, 0, inf, 1.0},
                             JobSpec{0, 0, 0.0, 1.0, 0, nan}})
    EXPECT_THROW(simulate(ClusterConfig{}, additive, {bad}, policy),
                 std::invalid_argument);
}

// A fleet run's outcome and bill blocks are mappings of their own, so
// freeing one hands its pages back instead of leaving a heap hole the
// next run may not fit (util/mapped.hpp). Blocks under a mebibyte come
// from the heap, where a small run does not pay for a mapping.
TEST(Cluster, LargeOutcomeAndBillBlocksAreMapped) {
  using OutcomeAlloc = util::MappedAllocator<JobOutcome>;
  using BillAlloc = util::MappedAllocator<DecisionBill>;
  const std::size_t outcomes = OutcomeAlloc::kMappedBytes / sizeof(JobOutcome);
  const std::size_t bills =
      (BillAlloc::kMappedBytes + sizeof(DecisionBill) - 1) / sizeof(DecisionBill);
  EXPECT_TRUE(OutcomeAlloc::maps(outcomes));
  EXPECT_FALSE(OutcomeAlloc::maps(outcomes - 1));
  EXPECT_TRUE(BillAlloc::maps(bills));
  EXPECT_FALSE(BillAlloc::maps(bills - 1));
  EXPECT_FALSE(OutcomeAlloc::maps(3));

  const auto page_aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 4096 == 0;
  };
  ClusterResult res;
  res.outcomes.resize(3);
  res.outcomes.resize(outcomes);  // grows from the heap into a mapping
  res.bills.resize(bills);
  EXPECT_TRUE(page_aligned(res.outcomes.data()));
  EXPECT_TRUE(page_aligned(res.bills.data()));
  res.outcomes.back().finish = 2.0;
  const ClusterResult copy = res;
  EXPECT_TRUE(page_aligned(copy.outcomes.data()));
  EXPECT_EQ(copy.outcomes.size(), outcomes);
  EXPECT_TRUE(copy.outcomes.back().completed());
  EXPECT_FALSE(copy.outcomes.front().completed());
  res.outcomes.resize(3);
  res.outcomes.shrink_to_fit();  // and back to the heap
  EXPECT_EQ(res.outcomes.size(), 3u);
}

// ClusterResult::bills holds one row per billed decision: bill k is
// Place event k * regret_sample, and the billed means are the rows'
// means. Failure kills re-place jobs, so decisions outnumber jobs.
TEST(Cluster, BillsAreTheBilledDecisions) {
  harness::MatrixTruth additive{synthetic_truth()};
  TraceOptions topt;
  topt.jobs = 400;
  topt.seed = 3;
  topt.mean_interarrival = 2.0;  // room to choose, so random pays regret
  auto trace = synthetic_trace(4, topt);
  for (std::size_t i = 0; i < trace.size(); i += 3) trace[i].slo_p99 = 1.3;
  FaultScheduleOptions sched;
  sched.horizon = 300.0;
  sched.mtbf = 60.0;
  sched.mttr = 5.0;
  for (const std::size_t sample : {1, 7}) {
    ClusterConfig cfg{4, 2};
    cfg.regret_sample = sample;
    cfg.faults = fault_schedule(cfg.machines, sched);
    RandomPolicy policy{2};
    const ClusterResult res = simulate(cfg, additive, trace, policy);
    std::size_t places = 0;
    for (const TraceEvent& e : res.log.events)
      places += e.kind == TraceEvent::Kind::Place;
    ASSERT_EQ(res.bills.size(), res.billed_decisions) << "sample " << sample;
    EXPECT_EQ(res.bills.size(), (places + sample - 1) / sample);
    double regret = 0.0, lc_regret = 0.0;
    for (const DecisionBill& b : res.bills) {
      EXPECT_GE(b.regret, 0.0);
      EXPECT_LE(b.regret, b.chosen);
      regret += b.regret;
      lc_regret += b.lc_regret;
    }
    const auto n = static_cast<double>(res.bills.size());
    EXPECT_EQ(regret / n, res.mean_decision_regret);
    EXPECT_EQ(lc_regret / n, res.mean_lc_tail_regret);
    EXPECT_GT(res.mean_decision_regret, 0.0) << "sample " << sample;
    if (sample == 1) {
      EXPECT_GT(res.billed_decisions, trace.size());
    }
  }
}

// The audit log packs a job type into 16 bits and a machine into 32,
// so simulate() refuses a wider truth axis or fleet before it sizes
// anything per machine. SIZE_MAX machines pins that order: sizing first
// would throw std::length_error, not std::invalid_argument.
TEST(Cluster, SimulateRejectsWhatTheAuditLogCannotPack) {
  struct WideTruth final : harness::InterferenceTruth {
    std::size_t size() const override { return 65537; }
    double slowdown(std::size_t, const std::vector<std::size_t>&) override {
      return 1.0;
    }
    const harness::CorunMatrix& pairwise() override {
      throw std::logic_error{"WideTruth has no matrix"};
    }
  } wide;
  RandomPolicy policy{1};
  const std::vector<JobSpec> ok = {{0, 0, 0.0, 1.0}};
  EXPECT_THROW(simulate({2, 2}, wide, ok, policy), std::invalid_argument);
  harness::MatrixTruth additive{synthetic_truth()};
  for (const std::size_t machines :
       {std::size_t{1} << 32, std::numeric_limits<std::size_t>::max()})
    EXPECT_THROW(simulate({machines, 2}, additive, ok, policy),
                 std::invalid_argument)
        << machines << " machines";
}

// (RegimeChangeTruth -- the non-additive group-truth fixture -- lives
// in cluster_fixtures.hpp, shared with the fleet equivalence suite.)

// The simulator must *run* jobs at group-truth rates, not composed
// ones: a victim packed with two hogs progresses at 4.0x, so on one
// 3-slot machine its unit of work finishes at t=4.0 exactly --
// additive composition would finish it at 1 + 2*(1.1-1) = 1.2.
TEST(GroupTruthCluster, ProgressFollowsGroupTruthNotComposition) {
  // hog(10) hog(10) victim(1), all at t=0, one 3-slot machine.
  const std::vector<JobSpec> trace = {
      {0, 0, 0.0, 10.0}, {1, 0, 0.0, 10.0}, {2, 1, 0.0, 1.0}};
  RegimeChangeTruth truth;
  RandomPolicy policy{1};  // single machine: no choice to make
  const auto res = simulate({1, 3}, truth, trace, policy);
  EXPECT_DOUBLE_EQ(res.outcomes[2].finish, 4.0)
      << "the victim must run at the measured group slowdown";

  RandomPolicy again{1};
  harness::MatrixTruth composed{RegimeChangeTruth::regime_matrix()};
  const auto additive = simulate({1, 3}, composed, trace, again);
  EXPECT_DOUBLE_EQ(additive.outcomes[2].finish, 1.2)
      << "the legacy additive path composes 1 + 2*(1.1-1)";
  EXPECT_GT(additive.pairwise_fallbacks, 0u)
      << "MatrixTruth must count composed 3-resident queries";
}

// Where group truth and composition disagree, placement must follow
// group truth: with a two-hog machine and a medium machine both open,
// the additive oracle happily adds the victim to the hogs (pair
// entries say 1.1x each), the group-truth oracle routes it to the
// medium machine -- and at measured group truth that additive choice
// is billed as real regret.
TEST(GroupTruthCluster, GroupTruthOracleAvoidsTheRegimeChange) {
  // Residents are nearly done (0.1 work left), so the victim's own
  // slowdown dominates the delta instead of the inflicted terms.
  const JobSpec victim{0, 1, 0.0, 1.0};
  const std::vector<MachineView> views = {
      {1, {{0, 0.1}, {0, 0.1}}},  // two hogs, one slot free
      {2, {{2, 0.1}}},            // one medium, two slots free
  };

  CostModelPolicy additive_oracle{"additive",
                                  RegimeChangeTruth::regime_matrix()};
  EXPECT_EQ(additive_oracle.place(victim, VectorClusterView{views}), 0u)
      << "pair entries make the two-hog machine look cheapest";

  RegimeChangeTruth truth;
  GroupTruthPolicy group_oracle{"group-oracle", truth};
  EXPECT_EQ(group_oracle.place(victim, VectorClusterView{views}), 1u)
      << "group truth says the two-hog machine quadruples the victim";

  // What the simulator bills each choice at measured group truth: the
  // additive oracle's pick is strictly worse, i.e. positive regret;
  // the group-truth oracle picked the argmin, i.e. zero regret.
  const double hog_machine =
      placement_delta(truth, victim.type, victim.work, views[0]);
  const double medium_machine =
      placement_delta(truth, victim.type, victim.work, views[1]);
  EXPECT_GT(hog_machine, medium_machine);
  EXPECT_GT(hog_machine - medium_machine, 2.0)
      << "the regime change dominates the delta (3.0 work units of "
         "victim excess alone)";
}

// 3+-resident outcomes reach the policy as full group observations and
// refine the pairwise estimate by deconvolution -- no dedicated pair
// runs, and the model itself never sees them. Feeding all 3-way groups
// synthesized from an additive truth must reconstruct its pairwise
// entries; a 2-resident outcome is exactly two pair observations.
TEST(GroupTruthCluster, OnlineRefinedDeconvolvesGroupOutcomes) {
  const auto truth = synthetic_truth();
  const auto sigs = synthetic_sigs();
  // Deliberately wrong prior (everything harmonious): convergence is
  // attributable to the group observations alone.
  harness::CorunMatrix flat = truth;
  for (auto& row : flat.normalized)
    for (double& cell : row) cell = 1.0;
  auto model = distilled_model(flat, sigs);
  const predict::LeastSquaresModel& lstsq = *model;
  const std::vector<double> weights_before = lstsq.weights();
  OnlineRefinedPolicy online{"online", std::move(model), sigs};

  const std::size_t n = truth.size();
  harness::MatrixTruth additive{truth};
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a; b < n; ++b)
      for (std::size_t c = b; c < n; ++c) {
        const std::vector<std::size_t> group = {a, b, c};
        std::vector<double> slowdowns;
        for (std::size_t i = 0; i < group.size(); ++i) {
          std::vector<std::size_t> others;
          for (std::size_t j = 0; j < group.size(); ++j)
            if (j != i) others.push_back(group[j]);
          slowdowns.push_back(additive.slowdown(group[i], others));
        }
        online.observe_group(group, slowdowns);
      }
  EXPECT_EQ(online.observed_cells(), 0u)
      << "no pair was ever observed directly";
  EXPECT_EQ(online.deconvolved_cells(), n * n);
  EXPECT_EQ(lstsq.weights(), weights_before)
      << "3+-resident groups are deconvolution's job, never the model's";

  // The estimate refreshes lazily at the next placement.
  const JobSpec job{0, 0, 0.0, 1.0};
  const std::vector<MachineView> open = {{2, {}}};
  (void)online.place(job, VectorClusterView{open});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(online.estimate().at(i, j), truth.at(i, j), 1e-2)
          << "deconvolved cell (" << i << "," << j << ")";

  EXPECT_THROW(online.observe_group({0, 1, 9}, {1.0, 1.0, 1.0}),
               std::out_of_range);
  EXPECT_THROW(online.observe_group({0, 1, 2}, {1.0}), std::invalid_argument);

  OnlineRefinedPolicy via_group{"group", distilled_model(flat, sigs), sigs};
  OnlineRefinedPolicy via_pairs{"pairs", distilled_model(flat, sigs), sigs};
  via_group.observe_group({0, 1}, {truth.at(0, 1), truth.at(1, 0)});
  via_pairs.observe_pair(0, 1, truth.at(0, 1));
  via_pairs.observe_pair(1, 0, truth.at(1, 0));
  (void)via_group.place(job, VectorClusterView{open});
  (void)via_pairs.place(job, VectorClusterView{open});
  EXPECT_EQ(via_group.observed_cells(), 2u);
  EXPECT_EQ(via_group.deconvolved_cells(), 0u);
  EXPECT_EQ(via_group.estimate().normalized, via_pairs.estimate().normalized)
      << "a 2-resident group observation is exactly two pair samples";
}

TEST(Placement, OnlineEstimateConvergesToObservedTruth) {
  const auto truth = synthetic_truth();
  const auto sigs = synthetic_sigs();
  // Distill from a deliberately wrong prior (everything harmonious) so
  // convergence is attributable to the observations alone.
  harness::CorunMatrix flat = truth;
  for (auto& row : flat.normalized)
    for (double& cell : row) cell = 1.0;
  OnlineRefinedPolicy online{"online", distilled_model(flat, sigs), sigs};
  for (std::size_t i = 0; i < truth.size(); ++i)
    for (std::size_t j = 0; j < truth.size(); ++j)
      online.observe_pair(i, j, truth.at(i, j));
  EXPECT_EQ(online.observed_cells(), truth.size() * truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i)
    for (std::size_t j = 0; j < truth.size(); ++j)
      EXPECT_NEAR(online.estimate().at(i, j), truth.at(i, j), 1e-12)
          << "observed cell (" << i << "," << j << ") not pinned to truth";
}

TEST(Placement, PoliciesRejectImpossibleRequests) {
  const auto truth = synthetic_truth();
  RandomPolicy random{1};
  CostModelPolicy cost{"oracle", truth};
  const JobSpec job{0, 0, 0.0, 1.0};
  const std::vector<MachineView> full = {{0, {{1, 1.0}, {2, 1.0}}}};
  EXPECT_THROW(random.place(job, VectorClusterView{full}), std::logic_error);
  EXPECT_THROW(cost.place(job, VectorClusterView{full}), std::logic_error);
  EXPECT_THROW((CostModelPolicy{"empty", harness::CorunMatrix{}}),
               std::invalid_argument);
  const JobSpec alien{0, 9, 0.0, 1.0};
  const std::vector<MachineView> open = {{2, {}}};
  EXPECT_THROW(cost.place(alien, VectorClusterView{open}), std::out_of_range);
  OnlineRefinedPolicy online{"online", distilled_model(truth, synthetic_sigs()),
                             synthetic_sigs()};
  EXPECT_THROW(online.observe_pair(9, 0, 1.5), std::out_of_range);
}

TEST(Placement, TiesGoToTheLowestOpenMachine) {
  // Machine 0 is full; machines 1-3 each hold one identical victim, so
  // every open candidate prices the same under every policy.
  const auto truth = synthetic_truth();
  harness::MatrixTruth oracle_truth{truth};
  const std::vector<MachineView> views = {{0, {{1, 5.0}, {1, 5.0}}},
                                          {1, {{1, 5.0, 1.2}}},
                                          {1, {{1, 5.0, 1.2}}},
                                          {1, {{1, 5.0, 1.2}}}};
  const VectorClusterView cluster{views};
  // A latency-critical hog with a budget it blows everywhere, so the
  // SLO-aware score ties on a nonzero violation as well.
  const JobSpec job{0, 0, 0.0, 2.0, 0, 1.01};
  CostModelPolicy throughput{"tp", truth};
  CostModelPolicy slo{"slo", truth, truth};
  GroupTruthPolicy oracle{"oracle", oracle_truth};
  EXPECT_EQ(throughput.place(job, cluster), 1u);
  EXPECT_EQ(slo.place(job, cluster), 1u);
  EXPECT_EQ(slo.forced_violations(), 1u);
  EXPECT_EQ(oracle.place(job, cluster), 1u);
}

TEST(Placement, InfiniteCostStillPlaces) {
  // Every co-location prices at +inf under the estimate. Once both
  // machines hold one resident, every open candidate is +inf, and the
  // job must still land on the lowest open machine.
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  harness::CorunMatrix inf = truth;
  for (auto& row : inf.normalized)
    for (double& cell : row) cell = std::numeric_limits<double>::infinity();
  CostModelPolicy policy{"inf", inf};
  const std::vector<JobSpec> trace = {
      {0, 0, 0.0, 10.0}, {1, 1, 0.0, 10.0}, {2, 2, 0.1, 10.0}};
  const auto res = simulate({2, 2}, additive, trace, policy);
  EXPECT_EQ(res.outcomes[0].machine, 0u);
  EXPECT_EQ(res.outcomes[1].machine, 1u);
  EXPECT_EQ(res.outcomes[2].machine, 0u);
}

/// Records which machines a policy views, in order, over a hand-built
/// cluster.
class CountingClusterView final : public ClusterView {
 public:
  explicit CountingClusterView(const std::vector<MachineView>& views)
      : inner_(views) {}

  std::size_t machines() const override { return inner_.machines(); }
  std::size_t open_count() const override { return inner_.open_count(); }
  std::size_t kth_open(std::size_t k) const override {
    return inner_.kth_open(k);
  }
  std::size_t free_slots(std::size_t m) const override {
    return inner_.free_slots(m);
  }
  const MachineView& view(std::size_t m) const override {
    viewed.push_back(m);
    return inner_.view(m);
  }

  mutable std::vector<std::size_t> viewed;

 private:
  VectorClusterView inner_;
};

/// Brute-force SLO violation of `job` on `machine` under the additively
/// composed pairwise `tail` estimate: every latency-critical party's
/// p99 excess over its budget, weighted by the work it runs under it.
/// Summed in the policy's order (the job, then each resident), so ties
/// compare bit for bit.
double brute_violation(const harness::CorunMatrix& tail, const JobSpec& job,
                       const MachineView& machine) {
  const std::vector<ResidentView>& rs = machine.residents;
  const auto p99 = [&](std::size_t fg, std::size_t self, bool with_job) {
    double excess = 0.0;
    for (std::size_t j = 0; j < rs.size(); ++j)
      if (j != self) excess += tail.at(fg, rs[j].type) - 1.0;
    if (with_job) excess += tail.at(fg, job.type) - 1.0;
    return std::max(1.0, 1.0 + excess);
  };
  double viol = 0.0;
  if (job.slo_p99 > 0.0)
    viol += std::max(0.0, p99(job.type, rs.size(), false) - job.slo_p99) *
            job.work;
  for (std::size_t i = 0; i < rs.size(); ++i)
    if (rs[i].slo_target > 0.0)
      viol += std::max(0.0, p99(rs[i].type, i, true) - rs[i].slo_target) *
              rs[i].remaining;
  return viol;
}

TEST(Placement, ScanStopsAtTheFirstZeroCostMachineOnlyWhenExact) {
  // Random 12-machine clusters of 2-slot machines, some full, some
  // empty, some holding LC residents. With every estimate entry >= 1 no
  // machine prices below 0 (SLO-aware: (0, 0)), so the policy stops at
  // the first machine that prices there; with one entry below 1 it
  // must price every open machine. Either way it picks the brute-force
  // argmin, lowest index on ties.
  const auto truth = synthetic_truth();
  harness::CorunMatrix skewed = truth;
  skewed.normalized[2][2] = 0.95;
  util::SplitMix64 rng{5};
  std::size_t stopped_early = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<MachineView> views(12);
    for (MachineView& v : views) {
      const std::size_t n = rng.below(3);
      v.free_slots = 2 - n;
      for (std::size_t r = 0; r < n; ++r)
        v.residents.push_back({rng.below(4), 10.0 * rng.uniform(),
                               rng.below(3) == 0 ? 1.1 + rng.uniform() : 0.0});
    }
    JobSpec job{0, rng.below(4), 0.0, 1.0 + 5.0 * rng.uniform()};
    if (rng.below(2) == 0) job.slo_p99 = 1.1 + rng.uniform();
    if (std::none_of(views.begin(), views.end(),
                     [](const MachineView& v) { return v.free_slots > 0; }))
      continue;

    for (const bool exact_floor : {true, false}) {
      const harness::CorunMatrix& est = exact_floor ? truth : skewed;
      for (const bool slo_aware : {false, true}) {
        // Brute force over every open machine.
        std::size_t best = views.size(), first_zero = views.size();
        std::pair<double, double> best_cost;
        for (std::size_t m = 0; m < views.size(); ++m) {
          if (views[m].free_slots == 0) continue;
          const std::pair<double, double> c{
              slo_aware ? brute_violation(truth, job, views[m]) : 0.0,
              placement_delta(est, job.type, job.work, views[m])};
          if (best == views.size() || c < best_cost) {
            best = m;
            best_cost = c;
          }
          if (first_zero == views.size() && c == std::pair{0.0, 0.0})
            first_zero = m;
        }
        CostModelPolicy policy = slo_aware ? CostModelPolicy{"slo", est, truth}
                                           : CostModelPolicy{"tp", est};
        const CountingClusterView cluster{views};
        ASSERT_EQ(policy.place(job, cluster), best)
            << "trial " << trial << (slo_aware ? " slo-aware" : " throughput")
            << (exact_floor ? "" : " skewed");
        const std::size_t open = cluster.open_count();
        if (exact_floor && first_zero != views.size()) {
          ASSERT_EQ(cluster.viewed.back(), first_zero)
              << "viewed a machine past the first zero-cost one";
          stopped_early += cluster.viewed.size() < open ? 1 : 0;
        } else {
          ASSERT_EQ(cluster.viewed.size(), open) << "trial " << trial;
        }
      }
    }
  }
  EXPECT_GT(stopped_early, 100u) << "fixture never exercised the stop";
}

// The satellite criterion, on the real pipeline: solo signatures ->
// analytic prediction -> distilled trainable model, then streaming
// placement on the measured 8-workload Tiny ground truth. Online
// refinement must do no worse than the frozen prediction.
TEST(ClusterIntegration, OnlineRefinedBeatsStaticOnTinyGroundTruth) {
  const std::vector<std::string> subset = {
      "Stream", "Bandit", "G-PR", "CIFAR",
      "fotonik3d", "swaptions", "IRSmk", "blackscholes"};
  harness::RunOptions run;
  run.machine = sim::MachineConfig::scaled();
  run.size = wl::SizeClass::Tiny;
  run.threads = 4;
  const auto sigs = predict::collect_signatures(subset, run, /*reps=*/1);
  harness::MatrixSpec spec{subset, 1, {}};
  for (const auto& s : sigs) spec.solo_cycles.push_back(s.solo_cycles);
  harness::ExperimentPlan plan{run};
  plan.add_matrix(spec);
  const harness::CorunMatrix truth = plan.execute().matrix(spec);
  harness::MatrixTruth additive{truth};

  const predict::BandwidthContentionModel analytic;
  const harness::CorunMatrix predicted =
      predict::predicted_matrix(sigs, analytic);

  ClusterConfig cfg;
  cfg.machines = 4;
  cfg.slots = 2;
  TraceOptions topt;
  topt.jobs = 600;
  topt.mean_work = 8.0;
  topt.mean_interarrival =
      topt.mean_work / (0.8 * static_cast<double>(cfg.machines * cfg.slots));

  // Placement regret billed per decision at ground truth: the oracle
  // is 0 by construction, online refinement converges toward it as
  // observations accumulate, the frozen prediction keeps paying for
  // its mispredictions.
  double static_total = 0.0, online_total = 0.0, oracle_total = 0.0,
         random_total = 0.0;
  for (std::uint64_t seed : {1, 2}) {
    topt.seed = seed;
    const auto trace = synthetic_trace(subset.size(), topt);
    RandomPolicy random{seed};
    CostModelPolicy statics{"static-analytic", predicted};
    OnlineRefinedPolicy online{"online-lstsq",
                               distilled_model(predicted, sigs), sigs};
    CostModelPolicy oracle{"oracle", truth};
    random_total += simulate(cfg, additive, trace, random).mean_decision_regret;
    static_total += simulate(cfg, additive, trace, statics).mean_decision_regret;
    online_total += simulate(cfg, additive, trace, online).mean_decision_regret;
    oracle_total += simulate(cfg, additive, trace, oracle).mean_decision_regret;
  }
  EXPECT_NEAR(oracle_total, 0.0, 1e-12)
      << "the truth-driven policy must have zero decision regret";
  EXPECT_LE(online_total, static_total + 1e-9)
      << "online refinement must not lose to the frozen prediction";
  EXPECT_LE(online_total, random_total + 1e-9)
      << "an informed policy must not lose to random placement";
  EXPECT_GE(online_total, 0.0);
  EXPECT_GE(static_total, 0.0);
}

// Equivalence on measured ground truth at 4x3: the indexed fleet
// engine must reproduce the reference loop byte for byte on a truth
// matrix built from real Tiny workload runs, not just on the
// hand-built synthetic fixtures.
TEST(ClusterIntegration, FleetEngineMatchesReferenceOnTinyTruth) {
  const std::vector<std::string> subset = {"Stream", "Bandit", "G-PR",
                                           "CIFAR"};
  harness::RunOptions run;
  run.machine = sim::MachineConfig::scaled();
  run.size = wl::SizeClass::Tiny;
  run.threads = 4;
  const auto sigs = predict::collect_signatures(subset, run, /*reps=*/1);
  harness::MatrixSpec spec{subset, 1, {}};
  for (const auto& s : sigs) spec.solo_cycles.push_back(s.solo_cycles);
  harness::ExperimentPlan plan{run};
  plan.add_matrix(spec);
  const harness::CorunMatrix truth = plan.execute().matrix(spec);
  harness::MatrixTruth additive{truth};

  const ClusterConfig cfg{4, 3};
  TraceOptions topt;
  topt.jobs = 400;
  topt.seed = 19;
  topt.mean_interarrival =
      topt.mean_work / (0.8 * static_cast<double>(cfg.machines * cfg.slots));
  const auto trace = synthetic_trace(subset.size(), topt);

  for (int which = 0; which < 2; ++which) {
    const auto make_run = [&](auto&& run) {
      if (which == 0) {
        CostModelPolicy p{"oracle", truth};
        return run(p);
      }
      RandomPolicy p{3};
      return run(p);
    };
    const ClusterResult ref = make_run([&](PlacementPolicy& p) {
      return simulate_reference(cfg, additive, trace, p);
    });
    const ClusterResult fleet = make_run(
        [&](PlacementPolicy& p) { return simulate(cfg, additive, trace, p); });
    EXPECT_EQ(ref.log.str(truth.workloads), fleet.log.str(truth.workloads))
        << "policy family " << which << " diverged on the Tiny truth";
    EXPECT_NEAR(ref.mean_decision_regret, fleet.mean_decision_regret, 1e-9);
    EXPECT_NEAR(ref.mean_stretch, fleet.mean_stretch, 1e-9);
  }
}

// ---------------------------------------------------------------------
// SLO-aware tail-latency scheduling
// ---------------------------------------------------------------------

// Tail-aware fixture: throughput-wise the victim (type 1) co-locates
// CHEAPLY with the hog (type 0) -- but its p99 explodes there (3.0x).
// Next to the neutral type 2 throughput is worse (1.30x) while the
// tail barely moves (1.10x). A throughput-only policy therefore walks
// the LC victim straight into the tail trap; only a tail-aware one
// escapes it.
class TailTrapTruth final : public harness::InterferenceTruth {
 public:
  TailTrapTruth() {
    m_.workloads = {"hog", "victim", "neutral"};
    m_.solo_cycles = {1'000'000, 1'000'000, 1'000'000};
    m_.normalized = {
        {1.20, 1.05, 1.10},  // hog    | {hog victim neutral}
        {1.05, 1.02, 1.30},  // victim: CHEAP next to the hog...
        {1.10, 1.02, 1.05},  // neutral
    };
    tail_ = m_;
    tail_.normalized[1] = {3.00, 1.05, 1.10};  // ...until you watch p99
  }

  std::size_t size() const override { return m_.size(); }
  const harness::CorunMatrix& pairwise() override { return m_; }
  const harness::CorunMatrix& tail_pairwise() const { return tail_; }

  double slowdown(std::size_t type,
                  const std::vector<std::size_t>& others) override {
    return harness::corun_slowdown(m_, type, others);
  }
  double tail_slowdown(std::size_t type,
                       const std::vector<std::size_t>& others) override {
    return harness::corun_slowdown(tail_, type, others);
  }

 private:
  harness::CorunMatrix m_;
  harness::CorunMatrix tail_;
};

TEST(Slo, BatchTracesKeepSloAccountingZeroAndUnannotated) {
  // No latency-critical job anywhere => the SLO machinery must be
  // provably idle: zero counters, no lc_regret audit annotations, and
  // (by construction in simulate()) zero extra truth queries.
  TailTrapTruth truth;
  TraceOptions topt;
  topt.jobs = 200;
  topt.seed = 4;
  const auto trace = synthetic_trace(3, topt);
  CostModelPolicy policy{"tp", truth.pairwise()};
  const auto res = simulate({2, 2}, truth, trace, policy);
  EXPECT_EQ(res.lc_jobs, 0u);
  for (const DecisionBill& b : res.bills) EXPECT_EQ(b.lc_regret, 0.0);
  EXPECT_EQ(res.slo_violation_decisions, 0u);
  EXPECT_DOUBLE_EQ(res.mean_lc_tail_regret, 0.0);
}

TEST(Slo, SimulateValidatesSloFields) {
  TailTrapTruth truth;
  RandomPolicy policy{1};
  std::vector<JobSpec> bad = {{0, 0, 0.0, 1.0, 0, -0.5}};
  EXPECT_THROW(simulate({2, 2}, truth, bad, policy), std::invalid_argument);
  // The reference loop is SLO-blind by design: LC traces are rejected,
  // not silently billed throughput-only.
  std::vector<JobSpec> lc = {{0, 1, 0.0, 1.0, 0, 1.5}};
  EXPECT_THROW(simulate_reference({2, 2}, truth, lc, policy),
               std::invalid_argument);
  EXPECT_NO_THROW(simulate({2, 2}, truth, lc, policy));
}

TEST(Slo, ThroughputOnlyPolicyWalksIntoTheTailTrapAndIsBilled) {
  TailTrapTruth truth;
  // Hog arrives first; the LC victim (p99 budget 1.5x) arrives while
  // both machines have a free slot: machine 0 holds the hog, machine 1
  // holds a neutral. Throughput says the hog machine is CHEAPER
  // (1.05x vs 1.30x), so the throughput-only policy co-locates and the
  // simulator bills the blown budget as LC tail regret.
  std::vector<JobSpec> trace = {{0, 0, 0.0, 10.0},
                                {1, 2, 0.0, 10.0},
                                {2, 1, 0.1, 10.0, 0, 1.5}};
  CostModelPolicy tp{"tp", truth.pairwise()};
  const auto res = simulate({2, 2}, truth, trace, tp);
  EXPECT_EQ(res.lc_jobs, 1u);
  EXPECT_EQ(res.outcomes[2].machine, res.outcomes[0].machine)
      << "fixture broken: throughput model was supposed to prefer the hog";
  EXPECT_GT(res.mean_lc_tail_regret, 0.0);
  EXPECT_GT(res.slo_violation_decisions, 0u);

  // Same scenario under the SLO-aware policy: it pays the throughput
  // premium to protect the budget, and the billed LC regret is zero.
  CostModelPolicy slo{"slo", truth.pairwise(), truth.tail_pairwise()};
  const auto sres = simulate({2, 2}, truth, trace, slo);
  EXPECT_NE(sres.outcomes[2].machine, sres.outcomes[0].machine);
  EXPECT_DOUBLE_EQ(sres.mean_lc_tail_regret, 0.0);
  EXPECT_EQ(sres.slo_violation_decisions, 0u);
  EXPECT_LT(sres.mean_lc_tail_regret + 1e-12, res.mean_lc_tail_regret);
}

TEST(Slo, ArrivingBeAggressorIsBilledAgainstResidentLcBudgets) {
  TailTrapTruth truth;
  // The LC victim is already running alone on machine 0 (budget 1.5),
  // a neutral occupies machine 1. A best-effort hog arrives; placing
  // it next to the victim blows the victim's budget even though the
  // HOG itself has no SLO. Billing must price that.
  std::vector<JobSpec> trace = {{0, 1, 0.0, 10.0, 0, 1.5},
                                {1, 2, 0.0, 10.0},
                                {2, 0, 0.1, 10.0}};
  CostModelPolicy slo{"slo", truth.pairwise(), truth.tail_pairwise()};
  const auto sres = simulate({2, 2}, truth, trace, slo);
  EXPECT_NE(sres.outcomes[2].machine, sres.outcomes[0].machine)
      << "SLO-aware policy parked the hog next to the LC victim";
  EXPECT_DOUBLE_EQ(sres.mean_lc_tail_regret, 0.0);

  // A policy that forces the co-location is billed the violation:
  // victim and hog pinned to machine 0, the neutral to machine 1.
  struct PinToVictim final : PlacementPolicy {
    std::string name() const override { return "pin"; }
    std::size_t place(const JobSpec& job, const ClusterView&) override {
      return job.type == 2 ? 1u : 0u;
    }
  } pin;
  const auto pres = simulate({2, 2}, truth, trace, pin);
  EXPECT_EQ(pres.outcomes[2].machine, pres.outcomes[0].machine);
  EXPECT_GT(pres.mean_lc_tail_regret, 0.0);
  EXPECT_GT(pres.slo_violation_decisions, 0u);
}

TEST(Slo, BeOnlyDecisionsReduceToCostModelArithmetic) {
  // With zero LC jobs in the trace, the SLO-aware policy must place
  // byte-identically to CostModelPolicy over the same throughput
  // matrix (the tail matrix never enters a BE-only decision).
  TailTrapTruth truth;
  TraceOptions topt;
  topt.jobs = 400;
  topt.seed = 9;
  topt.mean_interarrival = 0.6;
  const auto trace = synthetic_trace(3, topt);
  CostModelPolicy tp{"p", truth.pairwise()};
  CostModelPolicy slo{"p", truth.pairwise(), truth.tail_pairwise()};
  const auto a = simulate({3, 2}, truth, trace, tp);
  const auto b = simulate({3, 2}, truth, trace, slo);
  EXPECT_EQ(a.log.str({"hog", "victim", "neutral"}),
            b.log.str({"hog", "victim", "neutral"}));
  EXPECT_EQ(slo.forced_violations(), 0u);
}

TEST(Slo, PolicyValidatesItsMatrices) {
  TailTrapTruth truth;
  harness::CorunMatrix tiny;
  tiny.workloads = {"a"};
  tiny.solo_cycles = {1};
  tiny.normalized = {{1.0}};
  EXPECT_THROW(CostModelPolicy("x", truth.pairwise(), tiny),
               std::invalid_argument);
  EXPECT_THROW(CostModelPolicy("x", harness::CorunMatrix{}, tiny),
               std::invalid_argument);
}

}  // namespace
}  // namespace coperf::cluster
