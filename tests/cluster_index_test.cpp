// The class index behind the fast argmin: OpenClasses' upkeep and
// walks on hand-built members, and the exactness net -- a simulation
// whose policy sees the engine's class index must log and bill byte
// for byte what the same simulation logs and bills when the policy
// sees only the five scan calls of ClusterView (the index then stays
// off, so the regret bill scans too), with the same fallback counts.
// The grid covers 2-4 slots, priorities, faults, migration, admission
// shed and defer, billing of every decision, an estimate with an
// all-1.0 column (exact zero-cost ties), one with entries below 1
// (negative coefficients), the online policy whose estimate changes
// between decisions, a non-additive truth priced through the default
// admission_terms() by GroupTruthPolicy and by the cost-model oracle,
// and traces quantized to force price ties. A long-tier case replays a
// fleet_churn-shaped fleet the same way.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/open_classes.hpp"
#include "cluster_fixtures.hpp"
#include "harness/matrix.hpp"

namespace coperf::cluster {
namespace {

struct Res {
  std::uint32_t type;
  double eta;
  double slowdown;
};

std::vector<std::size_t> walk_all(const OpenClasses& idx, std::uint32_t c,
                                  std::size_t slot, bool ascending,
                                  std::vector<double>* bounds = nullptr) {
  std::vector<std::size_t> order;
  OpenClasses::Walk walk = idx.walk(c, slot, ascending);
  std::size_t m = 0;
  double r = 0.0;
  while (walk.next(m, r)) {
    order.push_back(m);
    if (bounds) bounds->push_back(r);
  }
  return order;
}

TEST(OpenClasses, GroupsBySlotOrderAndWalksByRemainingWork) {
  double now = 2.0;
  OpenClasses idx{8, 3, now};
  idx.insert(5, std::vector<Res>{});
  idx.insert(3, std::vector<Res>{});
  idx.insert(1, std::vector<Res>{{2, 9.0, 1.0}});
  idx.insert(6, std::vector<Res>{{2, 4.0, 1.0}});
  idx.insert(0, std::vector<Res>{{2, 6.0, 1.0}});
  idx.insert(2, std::vector<Res>{{1, 7.0, 1.5}, {2, 5.0, 2.0}});
  idx.insert(4, std::vector<Res>{{2, 5.0, 2.0}, {1, 7.0, 1.5}});
  ASSERT_EQ(idx.live().size(), 4u) << "{}, {2}, {1,2} and {2,1} differ";
  ASSERT_TRUE(idx.ordered());

  std::uint32_t empty = 0, two = 0;
  for (const std::uint32_t c : idx.live()) {
    if (idx.types(c).empty()) empty = c;
    if (idx.types(c) == std::vector<std::uint32_t>{2}) two = c;
  }
  EXPECT_EQ(idx.lowest(empty), 3u);
  EXPECT_EQ(idx.lowest(two), 0u);
  // Remaining work at now = 2 is (eta - 2) / slowdown: 7, 2 and 4.
  std::vector<double> bounds;
  EXPECT_EQ(walk_all(idx, two, 0, true, &bounds),
            (std::vector<std::size_t>{6, 0, 1}));
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_LE(bounds[0], 2.0);
  EXPECT_NEAR(bounds[0], 2.0, 1e-9);
  EXPECT_LE(bounds[2], 7.0);
  EXPECT_EQ(walk_all(idx, two, 0, false), (std::vector<std::size_t>{1, 0, 6}));
  const auto [least, most] = idx.remaining(two, 0);
  EXPECT_LE(least, 2.0);
  EXPECT_GE(most, 7.0);
  EXPECT_NEAR(most, 7.0, 1e-9);

  // Time passes: the bounds follow the clock, the order does not move.
  now = 5.0;
  EXPECT_EQ(idx.remaining(two, 0).first, 0.0) << "a resident due by now";
  EXPECT_EQ(walk_all(idx, two, 0, true), (std::vector<std::size_t>{6, 0, 1}));

  idx.erase(6);
  idx.erase(6);  // not a member any more: no-op
  EXPECT_EQ(walk_all(idx, two, 0, true), (std::vector<std::size_t>{0, 1}));
  idx.erase(3);
  idx.erase(5);
  EXPECT_EQ(idx.live().size(), 3u) << "an emptied class leaves the live set";

  // A slot whose members drain at different rates voids the bounds
  // until the class empties.
  idx.insert(7, std::vector<Res>{{2, 8.0, 1.25}});
  EXPECT_FALSE(idx.ordered());
  for (const std::size_t m : {0u, 1u, 7u}) idx.erase(m);
  EXPECT_TRUE(idx.ordered());
}

/// Forwards the five scan calls of ClusterView and counts view()s;
/// forwards open_classes() only when `classes` is set.
class ForwardingView final : public ClusterView {
 public:
  ForwardingView(const ClusterView& inner, bool classes, std::size_t& views)
      : inner_(inner), classes_(classes), views_(views) {}

  std::size_t machines() const override { return inner_.machines(); }
  std::size_t open_count() const override { return inner_.open_count(); }
  std::size_t kth_open(std::size_t k) const override {
    return inner_.kth_open(k);
  }
  std::size_t free_slots(std::size_t m) const override {
    return inner_.free_slots(m);
  }
  const MachineView& view(std::size_t m) const override {
    ++views_;
    return inner_.view(m);
  }
  const OpenClasses* open_classes() const override {
    return classes_ ? inner_.open_classes() : nullptr;
  }

 private:
  const ClusterView& inner_;
  bool classes_;
  std::size_t& views_;
};

/// Runs `inner` behind a ForwardingView; every other call forwards.
class Forwarding final : public PlacementPolicy {
 public:
  Forwarding(PlacementPolicy& inner, bool classes)
      : inner_(inner), classes_(classes) {}

  std::string name() const override { return inner_.name(); }
  std::size_t place(const JobSpec& job, const ClusterView& cluster) override {
    const ForwardingView seen{cluster, classes_, views};
    return inner_.place(job, seen);
  }
  void observe_pair(std::size_t fg, std::size_t bg, double s) override {
    inner_.observe_pair(fg, bg, s);
  }
  void observe_group(const std::vector<std::size_t>& types,
                     const std::vector<double>& slowdowns) override {
    inner_.observe_group(types, slowdowns);
  }
  double last_cost_delta() const override { return inner_.last_cost_delta(); }

  std::size_t views = 0;

 private:
  PlacementPolicy& inner_;
  bool classes_;
};

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Byte-identical audit logs and bills, and the same fallback counts.
void expect_same_run(const ClusterResult& a, const ClusterResult& b,
                     const std::vector<std::string>& names,
                     const std::string& cell) {
  ASSERT_EQ(a.pairwise_fallbacks, b.pairwise_fallbacks) << cell;
  ASSERT_EQ(a.log.events.size(), b.log.events.size()) << cell;
  for (std::size_t i = 0; i < a.log.events.size(); ++i) {
    const TraceEvent& x = a.log.events[i];
    const TraceEvent& y = b.log.events[i];
    ASSERT_TRUE(x.kind == y.kind && x.type == y.type &&
                x.machine == y.machine && x.job == y.job &&
                bits(x.time) == bits(y.time) && bits(x.value) == bits(y.value))
        << cell << ": event " << i << " differs (machine " << x.machine
        << " vs " << y.machine << " at t=" << x.time << ")";
  }
  ASSERT_EQ(a.bills.size(), b.bills.size()) << cell;
  for (std::size_t i = 0; i < a.bills.size(); ++i)
    ASSERT_TRUE(bits(a.bills[i].chosen) == bits(b.bills[i].chosen) &&
                bits(a.bills[i].regret) == bits(b.bills[i].regret) &&
                bits(a.bills[i].lc_regret) == bits(b.bills[i].lc_regret))
        << cell << ": bill " << i;
  EXPECT_EQ(a.log.str(names), b.log.str(names)) << cell;
}

/// 8 types whose column 0 is all 1.0 and whose row 0 is 1.0 against
/// types 0 and 7: a type-0 job prices exactly 0 on an empty machine and
/// next to those residents, a tie the lowest index must win.
harness::CorunMatrix tied_matrix() {
  constexpr std::size_t kTypes = 8;
  harness::CorunMatrix m;
  for (std::size_t i = 0; i < kTypes; ++i) {
    m.workloads.push_back("t" + std::to_string(i));
    m.solo_cycles.push_back(1'000'000);
  }
  m.normalized.assign(kTypes, std::vector<double>(kTypes, 1.0));
  for (std::size_t f = 0; f < kTypes; ++f)
    for (std::size_t b = 0; b < kTypes; ++b)
      m.normalized[f][b] = 1.0 + 0.15 * static_cast<double>((f + 1) * b % 7);
  return m;
}

/// The same axis with entries on both sides of 1.
harness::CorunMatrix skewed_matrix() {
  harness::CorunMatrix m = tied_matrix();
  for (std::size_t f = 0; f < m.size(); ++f)
    for (std::size_t b = 0; b < m.size(); ++b)
      m.normalized[f][b] = 0.7 + 0.11 * static_cast<double>((3 * f + b) % 9);
  return m;
}

enum class Protection { None, Shed, Defer };

struct Cell {
  std::size_t slots;
  Protection protection;
  bool quantized;
};

std::vector<JobSpec> cell_trace(std::size_t types, const Cell& c,
                                std::size_t machines, std::uint64_t seed) {
  FleetTraceOptions fopt;
  fopt.jobs = 900;
  fopt.seed = seed;
  fopt.arrivals = ArrivalModel::Bursty;
  fopt.work = WorkModel::Pareto;
  fopt.mean_work = 4.0;
  const double load = c.protection == Protection::None ? 0.8 : 1.3;
  fopt.mean_interarrival =
      fopt.mean_work / (load * static_cast<double>(machines * c.slots));
  if (c.protection != Protection::None) fopt.class_shares = {0.7, 0.2, 0.1};
  std::vector<JobSpec> trace = fleet_trace(types, fopt);
  if (c.quantized)
    for (JobSpec& j : trace) {
      j.arrival = std::floor(j.arrival * 4.0) / 4.0;
      j.work = std::max(1.0, std::round(j.work));
    }
  return trace;
}

ClusterConfig cell_config(const Cell& c, std::size_t machines, double horizon) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.slots = c.slots;
  cfg.regret_sample = 1;
  if (c.protection != Protection::None) {
    FaultScheduleOptions sched;
    sched.seed = 11;
    sched.horizon = horizon;
    sched.mtbf = horizon / 2.0;
    sched.mttr = sched.mtbf / 10.0;
    cfg.faults = fault_schedule(machines, sched);
    cfg.migration.preempt = true;
    cfg.admission.queue_limit = machines / 4;
  }
  if (c.protection == Protection::Defer) {
    cfg.admission.util_limit = 0.9;
    cfg.admission.defer_delay = 0.5;
    cfg.admission.max_defers = 2;
  }
  return cfg;
}

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  for (const std::size_t slots : {2u, 3u, 4u})
    for (const Protection p :
         {Protection::None, Protection::Shed, Protection::Defer})
      for (const bool quantized : {false, true})
        cells.push_back({slots, p, quantized});
  return cells;
}

std::string describe(const Cell& c, const std::string& policy) {
  static const char* kProt[] = {"none", "shed", "defer"};
  return policy + " slots=" + std::to_string(c.slots) + " protection=" +
         kProt[static_cast<int>(c.protection)] +
         (c.quantized ? " quantized" : "");
}

TEST(ClassIndex, IndexedPickLogsWhatTheScanLogs) {
  constexpr std::size_t kMachines = 48;
  const harness::CorunMatrix tied = tied_matrix();
  const harness::CorunMatrix skewed = skewed_matrix();
  const harness::CorunMatrix small = synthetic_truth();
  const harness::CorunMatrix regime = RegimeChangeTruth::regime_matrix();
  std::size_t indexed_views = 0, scan_views = 0;
  std::size_t indexed_queries = 0, scan_queries = 0;
  std::uint64_t seed = 40;
  for (const Cell& c : grid()) {
    ++seed;
    // The fixed estimates price an 8-type fleet; the online policy
    // learns the 4-type synthetic truth from its own placements. The
    // last two price the non-additive 3-type RegimeChangeTruth, whose
    // groups of 3+ differ from any matrix: by the truth itself and by
    // the oracle on its pairwise projection.
    for (const int family : {0, 1, 2, 3, 4}) {
      const bool regime_family = family >= 3;
      if (regime_family && c.slots < 3) continue;
      const harness::CorunMatrix& truth_matrix =
          family == 2 ? small : regime_family ? regime : tied;
      const std::vector<JobSpec> trace =
          cell_trace(truth_matrix.size(), c, kMachines, seed);
      const ClusterConfig cfg =
          cell_config(c, kMachines, trace.back().arrival + 1.0);
      const auto make_truth =
          [&]() -> std::unique_ptr<harness::InterferenceTruth> {
        if (regime_family) return std::make_unique<RegimeChangeTruth>();
        return std::make_unique<harness::MatrixTruth>(truth_matrix);
      };
      const auto make = [&](harness::InterferenceTruth& truth)
          -> std::unique_ptr<PlacementPolicy> {
        if (family == 0) return std::make_unique<CostModelPolicy>("tied", tied);
        if (family == 1)
          return std::make_unique<CostModelPolicy>("skewed", skewed);
        if (family == 2)
          return std::make_unique<OnlineRefinedPolicy>(
              "online", distilled_model(small, synthetic_sigs()),
              synthetic_sigs());
        if (family == 3)
          return std::make_unique<GroupTruthPolicy>("group-oracle", truth);
        return std::make_unique<CostModelPolicy>("oracle", regime);
      };

      const auto truth_a = make_truth();
      const auto as_is = make(*truth_a);
      const std::string cell = describe(c, as_is->name());
      const ClusterResult a = simulate(cfg, *truth_a, trace, *as_is);

      const auto truth_b = make_truth();
      const auto inner = make(*truth_b);
      Forwarding blind{*inner, /*classes=*/false};
      const ClusterResult b = simulate(cfg, *truth_b, trace, blind);
      expect_same_run(a, b, truth_matrix.workloads, cell);
      if (HasFatalFailure()) return;
      ASSERT_EQ(truth_a->fallbacks(), truth_b->fallbacks()) << cell;

      const auto truth_c = make_truth();
      const auto counted = make(*truth_c);
      Forwarding seeing{*counted, /*classes=*/true};
      expect_same_run(a, simulate(cfg, *truth_c, trace, seeing),
                      truth_matrix.workloads, cell + " (forwarded)");
      if (HasFatalFailure()) return;
      ASSERT_EQ(truth_a->fallbacks(), truth_c->fallbacks()) << cell;
      indexed_views += seeing.views;
      scan_views += blind.views;
      if (regime_family) {
        EXPECT_GT(truth_a->fallbacks(), 0u) << cell;
        indexed_queries += static_cast<RegimeChangeTruth&>(*truth_c).queries;
        scan_queries += static_cast<RegimeChangeTruth&>(*truth_b).queries;
      }
    }
  }
  // The net is only as good as its use of the index: it must prune,
  // and the truth-priced pick and bill must ask per class, not per
  // machine.
  EXPECT_LT(indexed_views * 2, scan_views)
      << "indexed " << indexed_views << " vs scan " << scan_views;
  EXPECT_LT(indexed_queries * 2, scan_queries)
      << "indexed " << indexed_queries << " vs scan " << scan_queries;
}

/// 8 types on fleet_churn's interference ramp: row f hurts more as f
/// grows, column b more as b grows, every entry >= 1.
harness::CorunMatrix ramp_matrix() {
  constexpr std::size_t kTypes = 8;
  harness::CorunMatrix m = tied_matrix();
  const double den = static_cast<double>(kTypes - 1);
  for (std::size_t f = 0; f < kTypes; ++f)
    for (std::size_t b = 0; b < kTypes; ++b)
      m.normalized[f][b] = 1.0 + 1.1 * (0.2 + 0.8 * f / den) * (b / den);
  return m;
}

// At fleet scale, in fleet_churn's shape: 2000 machines x 100k jobs at
// 135% load, a fault schedule, shedding below class 1, preemptive
// migration and every decision billed. The oracle prices through the
// class index and so does the bill; index-blind, both scan. No fleet
// digest hashes the bills, so this diff is what pins them at scale.
TEST(ClassIndexLong, FleetChurnLogsAndBillsWhatTheScanDoes) {
  constexpr std::size_t kMachines = 2000, kSlots = 2;
  const harness::CorunMatrix ramp = ramp_matrix();
  FleetTraceOptions topt;
  topt.jobs = 100'000;
  topt.seed = 3;
  topt.arrivals = ArrivalModel::Bursty;
  topt.work = WorkModel::Pareto;
  topt.class_shares = {0.75, 0.2, 0.05};
  topt.mean_interarrival =
      topt.mean_work / (1.35 * static_cast<double>(kMachines * kSlots));
  const std::vector<JobSpec> trace = fleet_trace(ramp.size(), topt);

  ClusterConfig cfg;
  cfg.machines = kMachines;
  cfg.slots = kSlots;
  cfg.regret_sample = 1;
  FaultScheduleOptions fopt;
  fopt.seed = 3;
  fopt.horizon = trace.back().arrival;
  fopt.mtbf = fopt.horizon / 3.0;
  fopt.mttr = fopt.mtbf / 20.0;
  cfg.faults = fault_schedule(kMachines, fopt);
  cfg.migration.preempt = true;
  cfg.admission.queue_limit = kMachines;
  cfg.admission.shed_below = 1;

  harness::MatrixTruth truth_a{ramp};
  CostModelPolicy indexed{"oracle", ramp};
  const ClusterResult a = simulate(cfg, truth_a, trace, indexed);

  harness::MatrixTruth truth_b{ramp};
  CostModelPolicy inner{"oracle", ramp};
  Forwarding blind{inner, /*classes=*/false};
  const ClusterResult b = simulate(cfg, truth_b, trace, blind);

  std::size_t placements = 0;
  for (const TraceEvent& e : a.log.events)
    placements += e.kind == TraceEvent::Kind::Place;
  ASSERT_EQ(a.bills.size(), placements) << "every placement is billed";
  EXPECT_GT(a.migrations, 0u);
  EXPECT_GT(a.shed_jobs, 0u);
  EXPECT_GT(a.fault_kills, 0u);
  expect_same_run(a, b, ramp.workloads, "fleet_churn shape");
  EXPECT_EQ(truth_a.fallbacks(), truth_b.fallbacks());
}

}  // namespace
}  // namespace coperf::cluster
