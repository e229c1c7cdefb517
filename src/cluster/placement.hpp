// Placement policies (cluster subsystem).
//
// A PlacementPolicy answers one question per arrival: which machine
// with a free slot should run this job? The cost-model policies answer
// it from a slowdown matrix -- a prediction frozen at admission time
// (static; with an optional tail matrix it is SLO-aware) or a
// prediction the simulator refines after every placement by feeding
// truly observed group outcomes back (online-refined: 2-resident
// outcomes pass through InterferenceModel::observe(), 3+-resident
// outcomes feed a PairDeconvolver so pairwise refinement needs no
// dedicated pair runs). GroupTruthPolicy asks the measured group-truth
// oracle directly -- the zero-regret reference the regret bench
// compares against. Every cost-driven policy picks the argmin over the
// open machines (lowest index on ties) through one scan; the
// throughput-only cost model and the truth-priced oracle reach the
// same pick through the class index when the view offers one, and the
// simulator's regret bill prices through the same argmin. The
// SLO-aware score and
// slo_violation() share one violation formula. Policies own
// all their randomness, so a fresh policy with the same seed replays
// identically.
//
// Policies see the cluster through ClusterView: a free-slot index
// (open_count/kth_open, ascending machine order), lazily materialized
// per-machine MachineViews and, optionally, the open machines grouped
// into classes by resident types (open_classes(), OpenClasses in
// open_classes.hpp). The simulator's fleet-scale implementation offers
// the classes and only materializes the machines a policy actually
// prices. ClusterView is the only entry point; tests that hand-build a
// vector of MachineViews wrap it in their own adapter, which offers no
// classes, so every policy also decides from the first five calls
// alone -- and must pick the same machine either way.
//
// Fault tolerance is invisible here by design: a failed machine simply
// leaves the open set (its slots are never offered), a recovered one
// rejoins it, and a retried or migrated job arrives at the policy as
// an ordinary placement decision -- so every policy is fault-capable
// without code changes, and a fault-free run prices the exact same
// candidate sequence as the fault-blind engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/trace.hpp"
#include "harness/grouptruth.hpp"
#include "harness/matrix.hpp"
#include "predict/deconvolve.hpp"
#include "predict/model.hpp"
#include "util/rng.hpp"

namespace coperf::cluster {

/// One running job as the policy sees it.
struct ResidentView {
  std::size_t type = 0;
  /// Solo-time units left to execute; never negative. CostModelPolicy's
  /// zero-cost stop relies on it: with every estimate entry >= 1, each
  /// term of placement_delta and of the SLO violation is then >= 0.
  double remaining = 0.0;
  /// The resident's p99 slowdown budget; 0 = best-effort
  /// (JobSpec::slo_p99 of the job occupying the slot).
  double slo_target = 0.0;
};

/// A machine's state at decision time.
struct MachineView {
  std::size_t free_slots = 0;
  std::vector<ResidentView> residents;
};

class OpenClasses;

/// What a policy sees of the cluster at decision time. kth_open
/// enumerates machines with a free slot in ascending index order --
/// the deterministic candidate order every policy iterates -- and
/// view() materializes a machine's residents on demand, so pricing N
/// candidates costs O(N x slots) instead of rebuilding every machine.
class ClusterView {
 public:
  virtual ~ClusterView() = default;

  /// Total machines in the cluster.
  virtual std::size_t machines() const = 0;
  /// Machines with at least one free slot.
  virtual std::size_t open_count() const = 0;
  /// The k-th (0-based) open machine in ascending index order. The
  /// simulator's implementation selects any k in O(log(machines / 64))
  /// and the next ascending k (k = previous + 1) in O(1) amortized.
  virtual std::size_t kth_open(std::size_t k) const = 0;
  /// 0 for a full machine, and for one that is down.
  virtual std::size_t free_slots(std::size_t m) const = 0;
  /// Machine m's residents and free slots, materialized on demand. The
  /// reference is valid only until the next view() call: the
  /// simulator's implementation reuses one scratch MachineView, so a
  /// caller copies what it must keep.
  virtual const MachineView& view(std::size_t m) const = 0;
  /// The open machines grouped by their residents' types in slot
  /// order, kept current by the view's owner; nullptr (the default)
  /// when the view keeps no such index. A policy may bound a whole
  /// class at once and view() only the members that could win, but
  /// must pick exactly what the kth_open scan would.
  virtual const OpenClasses* open_classes() const { return nullptr; }
};

/// Estimated machine time that admitting `job_type` with `job_work`
/// units of work adds to `machine`, priced by the slowdown matrix
/// `est`: the job's own excess slowdown persists for its whole work,
/// and the excess it inflicts on each resident persists for that
/// resident's remaining work. The shared cost primitive: the
/// cost-model policies minimize it over machines, and the simulator
/// re-prices every decision with it at ground truth to compute
/// per-decision placement regret. Allocation-free.
double placement_delta(const harness::CorunMatrix& est, std::size_t job_type,
                       double job_work, const MachineView& machine);

/// The same delta priced by a ground-truth oracle instead of a matrix
/// estimate: the job's true group slowdown for its own work plus the
/// true slowdown delta it inflicts on each resident (measured group
/// entries when the truth holds them, additive composition otherwise):
/// the truth's admission_delta(). truth_prices() minimizes it, for
/// GroupTruthPolicy and for the simulator's regret bill.
double placement_delta(harness::InterferenceTruth& truth, std::size_t job_type,
                       double job_work, const MachineView& machine);

/// SLO violation cost of admitting `job` to `machine`, priced by a
/// ground-truth oracle's tail_slowdown: for every latency-critical
/// party in the would-be group (the arriving job if it carries a
/// budget, plus each resident with slo_target > 0), the excess of its
/// true p99 slowdown in the new group over its budget, weighted by the
/// work that would run under that excess. Zero when nothing
/// latency-critical is involved -- and the function issues no tail
/// queries then, so batch-only billing stays byte-identical. The
/// SLO-aware CostModelPolicy prices the same formula with its tail
/// matrix in place of the oracle. This is the LC regret primitive: the
/// simulator bills slo_violation(chosen) - min over open machines on
/// every billed decision of an LC-carrying trace.
double slo_violation(harness::InterferenceTruth& truth, const JobSpec& job,
                     const MachineView& machine);

/// One decision priced at ground truth: placement_delta(truth, ...)
/// and, on request, slo_violation() over the open machines.
struct TruthPrices {
  /// The cheapest open machine (lowest index on ties) and the least
  /// price any open machine has.
  std::size_t machine = 0;
  double least = 0.0;
  /// The price of the machine asked about; 0 when it is not open.
  double chosen = 0.0;
  /// With `lc`: that machine's SLO violation and the least one.
  double lc_chosen = 0.0;
  double lc_least = 0.0;
};

/// Prices admitting `job` at ground truth on every open machine --
/// GroupTruthPolicy's pick and the simulator's regret bill. `chosen` is
/// a machine whose exact price the caller wants as well (SIZE_MAX for
/// none); `who` names the caller in errors.
///
/// Given `classes` and no `lc`, it asks the truth's admission_terms()
/// once per class and re-prices exactly only the members that could be
/// cheapest (CostModelPolicy's class-indexed argmin), counting each
/// class's fallbacks once per member, as a scan would. Otherwise it
/// scans the open machines in ascending order, one admission_delta()
/// and, with `lc`, one slo_violation() per machine. Either way the
/// prices and the pick are bit-identical.
TruthPrices truth_prices(harness::InterferenceTruth& truth, const JobSpec& job,
                         const ClusterView& cluster, const OpenClasses* classes,
                         std::size_t chosen, bool lc, const std::string& who);

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual std::string name() const = 0;

  /// Chooses a machine index with free_slots > 0. At least one such
  /// machine is guaranteed; choosing a full or down one (a down machine
  /// reports no free slot) is a policy bug the simulator rejects.
  virtual std::size_t place(const JobSpec& job,
                            const ClusterView& cluster) = 0;

  /// Ground-truth feedback after a placement: the normalized runtime of
  /// fg_type when bg_type shares its machine. Default: ignore.
  virtual void observe_pair(std::size_t fg_type, std::size_t bg_type,
                            double slowdown) {
    (void)fg_type, (void)bg_type, (void)slowdown;
  }

  /// Ground-truth feedback after a placement: the machine's full new
  /// resident group (new job first) and every member's true slowdown
  /// in it. Default: a 2-resident outcome decomposes into the legacy
  /// observe_pair() feedback (both orderings); larger groups are
  /// ignored -- override to consume them (OnlineRefinedPolicy
  /// deconvolves them into pairwise refinement).
  virtual void observe_group(const std::vector<std::size_t>& types,
                             const std::vector<double>& slowdowns) {
    if (types.size() == 2 && slowdowns.size() == 2) {
      observe_pair(types[0], types[1], slowdowns[0]);
      observe_pair(types[1], types[0], slowdowns[1]);
    }
  }

  /// Estimated cost delta of the last place() decision (log annotation).
  virtual double last_cost_delta() const { return 0.0; }
};

/// Uniform random over machines with a free slot -- the no-information
/// baseline. Count-then-pick over the free-slot index, so a decision
/// allocates nothing at any fleet size.
class RandomPolicy final : public PlacementPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed = 1) : rng_(seed) {}
  std::string name() const override { return "random"; }
  std::size_t place(const JobSpec& job, const ClusterView& cluster) override;

 private:
  util::SplitMix64 rng_;
};

/// Greedy marginal-cost placement on a slowdown-matrix estimate: pick
/// the machine where admitting the job adds the least *machine time*
/// -- each pairwise excess slowdown weighted by how long it will
/// persist (the new job's work, resp. the victim resident's remaining
/// work). Lowest index wins ties, for determinism. With the truth
/// matrix as the estimate this is the oracle; with a predicted matrix
/// it is the static-analytic scheduler.
///
/// Given a pairwise *tail* estimate as well (tail(fg, bg) = fg's p99
/// ratio with bg co-resident, additively composed over residents like
/// the throughput matrix), the policy is SLO-aware: candidates are
/// scored lexicographically by (predicted SLO violation, throughput
/// delta, lowest index). A machine where the arriving job's predicted
/// p99 blows its budget -- or where admitting it blows a
/// latency-critical resident's budget -- is refused while any
/// violation-free machine exists; among the admissible, the cheapest
/// throughput delta wins. When every open machine violates some
/// budget, the least-violating one is chosen (the job must land
/// somewhere). Best-effort-only decisions reduce exactly to the
/// throughput-only arithmetic.
///
/// Throughput-only, given a view with open_classes(), the policy
/// prices classes instead of machines: the members of a class share
/// the job's own excess and every coefficient, and their price is
/// monotone in each resident's remaining work, so one lower bound per
/// class (each resident's least remaining work where its coefficient is
/// >= 0, its most where it is < 0) prunes whole classes. It walks the
/// rest in order of remaining work, re-prices each member exactly from
/// its class's terms at the remaining work view() reports, and stops
/// once a bound exceeds the incumbent, so the pick (lowest index among
/// the exact minima) and its cost are the scan's. A class whose
/// coefficients are all 0 prices every member alike: only its lowest
/// member is priced. A price large enough to overflow voids the bounds,
/// and the class terms then price the scan below.
///
/// Otherwise -- the SLO-aware score (its cost depends on the residents'
/// budgets, which the class does not key) or a view without classes --
/// it scans the open machines in ascending order. When every estimate
/// entry is >= 1, no candidate can price below 0 (SLO-aware: (0, 0)),
/// so the scan stops at the first machine priced at 0 -- the pick the
/// full scan would make. An estimate with an entry below 1 scans every
/// open machine.
class CostModelPolicy : public PlacementPolicy {
 public:
  /// An empty `tail` prices throughput only; a non-empty one must
  /// share the estimate's axis.
  CostModelPolicy(std::string name, harness::CorunMatrix estimate,
                  harness::CorunMatrix tail = {});

  std::string name() const override { return name_; }
  std::size_t place(const JobSpec& job, const ClusterView& cluster) override;
  double last_cost_delta() const override { return last_delta_; }

  const harness::CorunMatrix& estimate() const { return estimate_; }
  /// SLO-aware decisions where every open machine blew some LC budget.
  std::size_t forced_violations() const { return forced_; }

 protected:
  /// Re-derives floor_; call after every change to estimate_.
  void reprice_floor();

  harness::CorunMatrix estimate_;

 private:
  harness::CorunMatrix tail_;
  std::string name_;
  /// The lowest cost any candidate can price at: 0 when every estimate
  /// entry is >= 1, -inf otherwise.
  double floor_ = 0.0;
  double last_delta_ = 0.0;
  std::size_t forced_ = 0;
};

/// Greedy marginal-cost placement priced directly by a ground-truth
/// oracle (measured group entries where available) through
/// truth_prices(), so through the class index when the view offers
/// one. With a fully measured GroupTruth this is the true oracle: zero
/// decision regret by construction, because it minimizes exactly the
/// delta the simulator bills with.
class GroupTruthPolicy final : public PlacementPolicy {
 public:
  GroupTruthPolicy(std::string name, harness::InterferenceTruth& truth);

  std::string name() const override { return name_; }
  std::size_t place(const JobSpec& job, const ClusterView& cluster) override;
  double last_cost_delta() const override { return last_delta_; }

 private:
  harness::InterferenceTruth& truth_;
  std::string name_;
  double last_delta_ = 0.0;
};

/// CostModelPolicy that closes the loop: every *new* observed pairwise
/// slowdown is fed to the model (kNN exemplar append / least-squares
/// RLS; repeats of an already-seen identical observation are dropped,
/// keeping the exemplar set bounded by the matrix size), observed
/// cells override predictions outright (measured fallback), and
/// still-unobserved cells are lazily re-predicted from the refined
/// model at the next placement. 3+-resident group outcomes feed a
/// PairDeconvolver whose least-squares pairwise estimates take over
/// unpinned cells once a co-residency has support -- refinement works
/// even when the cluster never runs a dedicated pair. The model must
/// already be able to predict (trained, or analytic) because the
/// initial estimate is derived from it.
class OnlineRefinedPolicy final : public CostModelPolicy {
 public:
  OnlineRefinedPolicy(std::string name,
                      std::unique_ptr<predict::InterferenceModel> model,
                      std::vector<predict::WorkloadSignature> sigs);

  std::size_t place(const JobSpec& job, const ClusterView& cluster) override;
  void observe_pair(std::size_t fg_type, std::size_t bg_type,
                    double slowdown) override;
  void observe_group(const std::vector<std::size_t>& types,
                     const std::vector<double>& slowdowns) override;

  predict::InterferenceModel& model() { return *model_; }
  std::size_t observed_cells() const { return observed_count_; }
  /// Cells currently served by deconvolved 3+-resident observations
  /// (not pinned by a direct pair observation).
  std::size_t deconvolved_cells() const;

 private:
  void refresh_unobserved();

  std::unique_ptr<predict::InterferenceModel> model_;
  std::vector<predict::WorkloadSignature> sigs_;
  /// Last observed slowdown per cell; NaN = never observed.
  std::vector<std::vector<double>> observed_;
  predict::PairDeconvolver decon_;
  std::size_t observed_count_ = 0;
  bool estimate_stale_ = false;
};

}  // namespace coperf::cluster
