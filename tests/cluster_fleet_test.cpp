// Fleet-engine tests: the indexed event loop (simulate) pinned against
// the reference scan loop (simulate_reference) -- byte-identical audit
// logs, matching regret -- plus the fleet trace generators, priority
// classes, regret sampling, and the audit-log job-id regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster_fixtures.hpp"
#include "cluster_reference.hpp"
#include "harness/grouptruth.hpp"
#include "harness/matrix.hpp"

namespace coperf::cluster {
namespace {

// --- engine equivalence ---------------------------------------------

// The tentpole guard: the indexed engine must reproduce the reference
// loop's audit log byte for byte and its regret, across policy
// families, on the additive synthetic truth.
TEST(FleetEquivalence, MatchesReferenceOnSyntheticTruth) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  const auto sigs = synthetic_sigs();
  TraceOptions topt;
  topt.jobs = 500;
  topt.seed = 11;
  topt.mean_interarrival = 0.9;  // deep queueing: waiting lanes exercised
  const auto trace = synthetic_trace(truth.size(), topt);
  const ClusterConfig cfg{3, 2};

  for (int which = 0; which < 3; ++which) {
    const auto make_run = [&](auto&& run) {
      switch (which) {
        case 0: {
          RandomPolicy p{7};
          return run(p);
        }
        case 1: {
          CostModelPolicy p{"oracle", truth};
          return run(p);
        }
        default: {
          OnlineRefinedPolicy p{"online", distilled_model(truth, sigs), sigs};
          return run(p);
        }
      }
    };
    const ClusterResult ref = make_run([&](PlacementPolicy& p) {
      return simulate_reference(cfg, additive, trace, p);
    });
    const ClusterResult fleet = make_run(
        [&](PlacementPolicy& p) { return simulate(cfg, additive, trace, p); });
    EXPECT_EQ(ref.log.str(truth.workloads), fleet.log.str(truth.workloads))
        << "policy family " << which << " diverged from the reference loop";
    EXPECT_NEAR(ref.mean_decision_regret, fleet.mean_decision_regret, 1e-9);
    EXPECT_NEAR(ref.mean_stretch, fleet.mean_stretch, 1e-9);
    EXPECT_NEAR(ref.mean_corun_slowdown, fleet.mean_corun_slowdown, 1e-9);
    EXPECT_NEAR(ref.makespan, fleet.makespan, 1e-9);
    EXPECT_EQ(ref.billed_decisions, fleet.billed_decisions);
  }
}

// Same pin on a non-additive truth (measured 3-resident regime
// change), where slowdowns depend on the full resident multiset.
// Fallback counts are NOT compared: the indexed engine re-queries the
// oracle only when a resident set changes, the reference re-queries at
// every global event, so the counts legitimately differ.
TEST(FleetEquivalence, MatchesReferenceOnRegimeChangeTruth) {
  TraceOptions topt;
  topt.jobs = 400;
  topt.seed = 23;
  topt.mean_interarrival = 0.7;
  const auto trace = synthetic_trace(3, topt);
  const ClusterConfig cfg{2, 3};  // 3 slots: the 4.0x regime is reachable
  const auto workloads = RegimeChangeTruth::regime_matrix().workloads;

  RegimeChangeTruth truth_ref, truth_fleet;
  GroupTruthPolicy p_ref{"group-oracle", truth_ref};
  GroupTruthPolicy p_fleet{"group-oracle", truth_fleet};
  const auto ref = simulate_reference(cfg, truth_ref, trace, p_ref);
  const auto fleet = simulate(cfg, truth_fleet, trace, p_fleet);
  EXPECT_EQ(ref.log.str(workloads), fleet.log.str(workloads));
  EXPECT_NEAR(ref.mean_decision_regret, fleet.mean_decision_regret, 1e-9);
  EXPECT_NEAR(ref.mean_stretch, fleet.mean_stretch, 1e-9);
  EXPECT_EQ(ref.billed_decisions, fleet.billed_decisions);
}

/// The cost-model argmin with no early stop: prices every open machine
/// and keeps the lowest index on ties. It drives the reference side of
/// the multi-word pin, so a zero-cost stop that changes a pick shows.
class FullScanPolicy final : public PlacementPolicy {
 public:
  explicit FullScanPolicy(harness::CorunMatrix est) : est_(std::move(est)) {}
  std::string name() const override { return "full-scan"; }
  std::size_t place(const JobSpec& job, const ClusterView& cluster) override {
    std::size_t best = cluster.kth_open(0);
    last_ = placement_delta(est_, job.type, job.work, cluster.view(best));
    for (std::size_t k = 1; k < cluster.open_count(); ++k) {
      const std::size_t m = cluster.kth_open(k);
      const double c =
          placement_delta(est_, job.type, job.work, cluster.view(m));
      if (c < last_) {
        last_ = c;
        best = m;
      }
    }
    return best;
  }
  double last_cost_delta() const override { return last_; }

 private:
  harness::CorunMatrix est_;
  double last_ = 0.0;
};

// The same pin on a fleet wide enough that the free-slot bitset spans
// several 64-machine words: random picks select across words, and
// bursts alternate a full fleet with a scattered open set. The trace
// opens with 200 identical jobs arriving together: every machine that
// keeps the same start runs through the same arithmetic, so they
// finish at bit-identical instants and the completion heap's (eta,
// machine) tie order shows in the log. The cost-model runs face a
// full-scan argmin on the reference side: the oracle's estimate has
// every entry >= 1, so its scan may stop at the first zero-cost
// machine; the skewed estimate has one entry below 1, so its scan must
// price every open machine.
TEST(FleetEquivalence, MatchesReferenceAcrossOpenSetWords) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  harness::CorunMatrix skewed = truth;
  skewed.normalized[2][2] = 0.95;  // neutral next to neutral: a speedup
  for (const std::size_t slots : {2, 3}) {
    const ClusterConfig cfg{160, slots};
    FleetTraceOptions topt;
    topt.jobs = 800;
    topt.seed = 31 + slots;
    topt.arrivals = ArrivalModel::Bursty;
    topt.mean_interarrival =
        topt.mean_work / (0.9 * static_cast<double>(cfg.machines * slots));
    auto trace = fleet_trace(truth.size(), topt);
    const double t0 = trace[0].arrival;
    for (std::size_t i = 0; i < 200; ++i) trace[i] = {i, 0, t0, 4.0};

    const harness::CorunMatrix* const estimates[] = {nullptr, &truth, &skewed};
    for (const harness::CorunMatrix* est : estimates) {
      std::unique_ptr<PlacementPolicy> ref_policy, fleet_policy;
      if (est == nullptr) {
        ref_policy = std::make_unique<RandomPolicy>(7);
        fleet_policy = std::make_unique<RandomPolicy>(7);
      } else {
        ref_policy = std::make_unique<FullScanPolicy>(*est);
        fleet_policy = std::make_unique<CostModelPolicy>("cost-model", *est);
      }
      const ClusterResult ref =
          simulate_reference(cfg, additive, trace, *ref_policy);
      const ClusterResult fleet = simulate(cfg, additive, trace, *fleet_policy);
      EXPECT_EQ(ref.log.str(truth.workloads), fleet.log.str(truth.workloads))
          << fleet_policy->name() << (est == &skewed ? " (skewed)" : "")
          << " at " << slots << " slots diverged from the reference loop";
      EXPECT_NEAR(ref.mean_decision_regret, fleet.mean_decision_regret, 1e-9);
      EXPECT_NEAR(ref.makespan, fleet.makespan, 1e-9);
      EXPECT_EQ(ref.billed_decisions, fleet.billed_decisions);
    }
  }
}

// --- audit-log job identity (the bugfix) ----------------------------

// Regression: Place and Finish events used to log the job's *trace
// index* instead of JobSpec::id, so any trace with non-identity ids
// produced an audit log whose Arrive lines disagreed with its
// Place/Finish lines about which job was which.
TEST(FleetAuditLog, PlaceAndFinishLogJobIdsNotTraceIndices) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  TraceOptions topt;
  topt.jobs = 120;
  topt.seed = 9;
  auto trace = synthetic_trace(truth.size(), topt);
  for (std::size_t i = 0; i < trace.size(); ++i)
    trace[i].id = 1000 + 3 * i;  // non-identity, disjoint from indices

  for (int engine = 0; engine < 2; ++engine) {
    CostModelPolicy policy{"oracle", truth};
    const auto res = engine == 0
                         ? simulate_reference({2, 2}, additive, trace, policy)
                         : simulate({2, 2}, additive, trace, policy);
    // Every event must carry a JobSpec::id, and each job's Arrive,
    // Place, and Finish must agree on it (exactly one of each).
    std::map<std::size_t, std::array<int, 3>> kinds;
    for (const TraceEvent& e : res.log.events) {
      EXPECT_GE(e.job, 1000u) << "event logged a trace index, not an id";
      ++kinds[e.job][static_cast<int>(e.kind)];
    }
    EXPECT_EQ(kinds.size(), trace.size());
    // The log is where a job's identity lives (outcome i is trace[i]
    // and stores no id): trace entry i's id must carry its events.
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto it = kinds.find(trace[i].id);
      ASSERT_NE(it, kinds.end()) << "job " << i << " lost its identity";
      EXPECT_EQ(it->second[0], 1) << "job " << i << " Arrive";
      EXPECT_EQ(it->second[1], 1) << "job " << i << " Place";
      EXPECT_EQ(it->second[2], 1) << "job " << i << " Finish";
    }
  }
}

// --- floating-point discipline over long traces ---------------------

// The completion path clamps remaining work at zero per interval, so
// even a long, deeply-queued run never yields a stretch or co-run
// slowdown below 1: negative-residue drift would show up here.
TEST(FleetNumerics, LongTraceStretchStaysAboveOneAndReplays) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  TraceOptions topt;
  topt.jobs = 20'000;
  topt.seed = 31;
  topt.mean_interarrival = 0.35;  // ~2.3x oversubscribed on 4 slots
  const auto trace = synthetic_trace(truth.size(), topt);
  const ClusterConfig cfg{2, 2};

  const auto run = [&] {
    CostModelPolicy policy{"oracle", truth};
    return simulate(cfg, additive, trace, policy);
  };
  const auto res = run();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const JobOutcome& o = res.outcomes[i];
    ASSERT_GE(o.stretch(trace[i]), 1.0 - 1e-9) << "job " << trace[i].id;
    ASSERT_GE(o.corun_slowdown(trace[i]), 1.0 - 1e-9) << "job " << trace[i].id;
  }
  EXPECT_GE(res.mean_stretch, 1.0 - 1e-9);
  // Deterministic replay: same inputs, byte-identical audit log.
  EXPECT_EQ(res.log.str(truth.workloads), run().log.str(truth.workloads));
}

// --- regret sampling ------------------------------------------------

// Billing is observational: sampling it must not perturb the
// simulation itself, only how many decisions are priced.
TEST(FleetRegret, SamplingChangesBillingNotDynamics) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  TraceOptions topt;
  topt.jobs = 300;
  topt.seed = 13;
  const auto trace = synthetic_trace(truth.size(), topt);

  const auto run = [&](std::size_t sample) {
    ClusterConfig cfg{3, 2};
    cfg.regret_sample = sample;
    CostModelPolicy policy{"oracle", truth};
    return simulate(cfg, additive, trace, policy);
  };
  const auto every = run(1);
  const auto tenth = run(10);
  const auto never = run(0);
  EXPECT_EQ(every.billed_decisions, trace.size());
  EXPECT_EQ(tenth.billed_decisions, (trace.size() + 9) / 10);
  EXPECT_EQ(never.billed_decisions, 0u);
  EXPECT_DOUBLE_EQ(never.mean_decision_regret, 0.0);
  // The oracle's regret is 0 at any sampling rate.
  EXPECT_NEAR(every.mean_decision_regret, 0.0, 1e-12);
  EXPECT_NEAR(tenth.mean_decision_regret, 0.0, 1e-12);
  // Identical dynamics regardless of billing.
  EXPECT_EQ(every.log.str(truth.workloads), tenth.log.str(truth.workloads));
  EXPECT_EQ(every.log.str(truth.workloads), never.log.str(truth.workloads));
}

// --- priority classes -----------------------------------------------

TEST(FleetPriority, HigherClassLeavesTheQueueFirst) {
  harness::CorunMatrix truth;
  truth.workloads = {"unit"};
  truth.solo_cycles = {1};
  truth.normalized = {{1.0}};
  harness::MatrixTruth additive{truth};
  // One 2-slot machine, full until t=4; a best-effort job arrives at
  // t=1, a priority-3 job at t=2. The freed slot at t=4 must go to the
  // later, higher-class arrival.
  const std::vector<JobSpec> trace = {{0, 0, 0.0, 4.0, 0},
                                      {1, 0, 0.0, 8.0, 0},
                                      {2, 0, 1.0, 1.0, 0},
                                      {3, 0, 2.0, 1.0, 3}};
  CostModelPolicy policy{"oracle", truth};
  const auto res = simulate({1, 2}, additive, trace, policy);
  EXPECT_DOUBLE_EQ(res.outcomes[3].start, 4.0) << "priority job first";
  EXPECT_DOUBLE_EQ(res.outcomes[2].start, 5.0) << "best-effort job after";

  // All-zero priorities are plain FIFO -- and the reference loop only
  // accepts those.
  CostModelPolicy ref_policy{"oracle", truth};
  EXPECT_THROW(simulate_reference({1, 2}, additive, trace, ref_policy),
               std::invalid_argument);
  const std::vector<JobSpec> bad = {{0, 0, 0.0, 1.0, kMaxPriority + 1}};
  EXPECT_THROW(simulate({1, 2}, additive, bad, policy), std::invalid_argument);
}

// --- fleet trace generators -----------------------------------------

TEST(FleetTrace, GeneratorsAreDeterministicSortedAndValid) {
  for (const ArrivalModel am :
       {ArrivalModel::Poisson, ArrivalModel::Diurnal, ArrivalModel::Bursty}) {
    for (const WorkModel wm : {WorkModel::Uniform, WorkModel::Pareto}) {
      FleetTraceOptions opt;
      opt.jobs = 2000;
      opt.seed = 42;
      opt.arrivals = am;
      opt.work = wm;
      opt.class_shares = {0.7, 0.2, 0.1};
      const auto a = fleet_trace(5, opt);
      const auto b = fleet_trace(5, opt);
      EXPECT_EQ(a, b) << "fleet_trace must be seed-deterministic";
      opt.seed = 43;
      EXPECT_NE(a, fleet_trace(5, opt));
      ASSERT_EQ(a.size(), 2000u);
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, i);
        EXPECT_LT(a[i].type, 5u);
        EXPECT_GT(a[i].work, 0.0);
        EXPECT_LE(a[i].priority, 2u);
        if (i > 0) ASSERT_GE(a[i].arrival, a[i - 1].arrival);
      }
    }
  }
}

TEST(FleetTrace, ParetoWorkIsHeavyTailedAndCapped) {
  FleetTraceOptions opt;
  opt.jobs = 50'000;
  opt.seed = 7;
  opt.work = WorkModel::Pareto;
  opt.mean_work = 8.0;
  const auto trace = fleet_trace(3, opt);
  double max_work = 0.0, sum = 0.0;
  for (const JobSpec& j : trace) {
    max_work = std::max(max_work, j.work);
    sum += j.work;
    ASSERT_LE(j.work, opt.mean_work * 256.0 + 1e-9) << "capped at 256x";
  }
  const double mean = sum / static_cast<double>(trace.size());
  EXPECT_NEAR(mean, opt.mean_work, 0.2 * opt.mean_work)
      << "Pareto work is scaled to roughly unit mean";
  EXPECT_GT(max_work, 10.0 * opt.mean_work)
      << "a 50k-job alpha=1.8 draw must show the heavy tail";
  // Uniform work, same options, never leaves [0.5, 1.5] x mean.
  opt.work = WorkModel::Uniform;
  for (const JobSpec& j : fleet_trace(3, opt)) {
    ASSERT_GE(j.work, 0.5 * opt.mean_work);
    ASSERT_LE(j.work, 1.5 * opt.mean_work);
  }
}

TEST(FleetTrace, DiurnalLoadSwingsWithThePhase) {
  FleetTraceOptions opt;
  opt.jobs = 40'000;
  opt.seed = 3;
  opt.arrivals = ArrivalModel::Diurnal;
  opt.mean_interarrival = 1.0;
  const auto trace = fleet_trace(2, opt);
  // Count arrivals landing in the rising half of each 1024-unit period
  // (sin > 0, boosted rate) vs the falling half: at amplitude 0.75 the
  // halves take about 2.8 : 1 of the arrivals.
  constexpr double kPeriod = 1024.0;
  std::size_t up = 0, down = 0;
  for (const JobSpec& j : trace) {
    const double phase = std::fmod(j.arrival, kPeriod);
    (phase < kPeriod / 2.0 ? up : down) += 1;
  }
  EXPECT_GT(static_cast<double>(up), 1.5 * static_cast<double>(down))
      << "peak-phase arrivals must clearly outnumber trough-phase ones";
}

TEST(FleetTrace, BurstyArrivalsAreBurstierThanPoisson) {
  FleetTraceOptions opt;
  opt.jobs = 40'000;
  opt.seed = 5;
  opt.mean_interarrival = 1.0;
  // Index of dispersion (variance / mean) of the arrival counts in
  // windows of 5 time units: 1 for Poisson arrivals.
  const auto dispersion = [](const std::vector<JobSpec>& trace) {
    constexpr double kWindow = 5.0;
    std::vector<double> counts(
        static_cast<std::size_t>(trace.back().arrival / kWindow) + 1, 0.0);
    for (const JobSpec& j : trace)
      counts[static_cast<std::size_t>(j.arrival / kWindow)] += 1.0;
    double sum = 0.0, sq = 0.0;
    for (const double c : counts) {
      sum += c;
      sq += c * c;
    }
    const double n = static_cast<double>(counts.size());
    const double mean = sum / n;
    return (sq / n - mean * mean) / mean;
  };
  opt.arrivals = ArrivalModel::Poisson;
  const double poisson = dispersion(fleet_trace(2, opt));
  opt.arrivals = ArrivalModel::Bursty;
  const double bursty = dispersion(fleet_trace(2, opt));
  EXPECT_NEAR(poisson, 1.0, 0.15) << "Poisson counts: variance = mean";
  // A burst packs about 50 arrivals into about 6 time units (8x the
  // base rate), so the windows it lands in hold several times the mean
  // count: the index comes out at about 3.
  EXPECT_GT(bursty, 2.0 * poisson)
      << "the two-state modulation must overdisperse arrival counts";
}

TEST(FleetTrace, PriorityClassSharesAreRespected) {
  FleetTraceOptions opt;
  opt.jobs = 30'000;
  opt.seed = 17;
  opt.class_shares = {0.6, 0.3, 0.1};
  const auto trace = fleet_trace(4, opt);
  std::array<std::size_t, 3> counts{};
  for (const JobSpec& j : trace) {
    ASSERT_LE(j.priority, 2u);
    ++counts[j.priority];
  }
  const double n = static_cast<double>(trace.size());
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.6, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.1, 0.02);
}

TEST(FleetTrace, RejectsDegenerateOptions) {
  EXPECT_THROW(fleet_trace(0, {}), std::invalid_argument);
  FleetTraceOptions bad;
  bad.mean_interarrival = 0.0;
  EXPECT_THROW(fleet_trace(2, bad), std::invalid_argument);
  // Non-finite means and shares, which a plain `<= 0` check lets
  // through.
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    bad = {};
    bad.mean_interarrival = v;
    EXPECT_THROW(fleet_trace(2, bad), std::invalid_argument);
    bad = {};
    bad.mean_work = v;
    EXPECT_THROW(fleet_trace(2, bad), std::invalid_argument);
    bad = {};
    bad.class_shares = {0.5, v};
    EXPECT_THROW(fleet_trace(2, bad), std::invalid_argument);
  }
  bad = {};
  bad.class_shares = std::vector<double>(kMaxPriority + 2, 1.0);
  EXPECT_THROW(fleet_trace(2, bad), std::invalid_argument);
  bad = {};
  bad.class_shares = {0.5, -0.5};
  EXPECT_THROW(fleet_trace(2, bad), std::invalid_argument);
}

// --- fleet-shaped end-to-end run ------------------------------------

// A moderately large fleet run through the indexed engine: every job
// completes, identities survive, and sampled regret stays finite.
// (The real scale test is bench/fleet_throughput; this keeps the
// engine honest at a size ctest can afford.)
TEST(FleetEngine, HandlesAFleetShapedTrace) {
  const auto truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  FleetTraceOptions opt;
  opt.jobs = 30'000;
  opt.seed = 2;
  opt.arrivals = ArrivalModel::Bursty;
  opt.work = WorkModel::Pareto;
  opt.mean_interarrival = 8.0 / (0.8 * 64.0 * 2.0);
  opt.class_shares = {0.8, 0.2};
  const auto trace = fleet_trace(truth.size(), opt);
  ClusterConfig cfg{64, 2};
  cfg.regret_sample = 100;
  CostModelPolicy policy{"oracle", truth};
  const auto res = simulate(cfg, additive, trace, policy);
  ASSERT_EQ(res.outcomes.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_GT(res.outcomes[i].finish, 0.0);
    ASSERT_GE(res.outcomes[i].stretch(trace[i]), 1.0 - 1e-9);
  }
  EXPECT_EQ(res.billed_decisions, (trace.size() + 99) / 100);
  EXPECT_NEAR(res.mean_decision_regret, 0.0, 1e-9)
      << "the additive oracle stays regret-free under sampling";
}

}  // namespace
}  // namespace coperf::cluster
