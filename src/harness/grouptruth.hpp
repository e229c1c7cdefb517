// Group truth -- measured N-way interference as the billing primitive.
//
// The paper's co-location experiments show interference is not
// pairwise-additive: a third resident can push an LLC-thrashing pair
// past a regime change that no sum of pair entries predicts. Until
// this module, every consumer of "how slow is this resident group"
// (the cluster simulator, placement billing, regret benches) composed
// CorunMatrix pair entries additively via harness::corun_slowdown.
//
// InterferenceTruth is the oracle interface those consumers now ask
// instead: per-resident slowdown of an arbitrary co-resident multiset.
// Two implementations:
//
//  * MatrixTruth -- the legacy model: pairwise excess slowdowns from a
//    fixed CorunMatrix compose additively. Kept for synthetic tests,
//    predicted matrices, and as the documented fallback; its billing
//    is bit-identical to the pre-grouptruth code.
//  * GroupTruth -- measured truth: maps a sorted resident multiset to
//    per-member slowdowns actually simulated as N-way GroupSpec trials
//    (harness/group.hpp), built lazily through ExperimentPlan so
//    trials deduplicate structurally and against the content-addressed
//    RunCache (each unique group simulates exactly once, and a warm
//    COPERF_RUN_CACHE_DIR serves repeats without simulating). The
//    pairwise CorunMatrix is its 2-resident projection. Groups larger
//    than Config::max_arity fall back to additive composition of that
//    projection -- counted, so benches can report how often the
//    additive approximation was still in play.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/matrix.hpp"
#include "harness/plan.hpp"
#include "harness/runner.hpp"

namespace coperf::harness {

/// One measured (or composed) group data point: the slowdown of a
/// `type` resident while the `others` multiset shared its machine.
struct GroupObservation {
  std::size_t type = 0;
  std::vector<std::size_t> others;  ///< sorted co-resident type multiset
  double slowdown = 1.0;
  /// p99 request-latency ratio for serving foregrounds; equals
  /// `slowdown` for batch foregrounds (no request distribution).
  double tail_slowdown = 1.0;
};

/// Co-residents of member `i`: `group` minus its i-th element. The
/// member-to-others rebuild every group consumer needs (billing,
/// observation fan-out, trial expansion).
std::vector<std::size_t> others_excluding(const std::vector<std::size_t>& group,
                                          std::size_t i);

/// Oracle for true co-residency slowdowns. `slowdown` answers for an
/// arbitrary resident multiset; `pairwise` is the 2-resident
/// projection every matrix-era consumer (policies, predictors) still
/// reads. `fallbacks` counts the queries this truth could only answer
/// by additive pairwise composition rather than a measurement.
class InterferenceTruth {
 public:
  virtual ~InterferenceTruth() = default;

  /// Number of workload types on the axis.
  virtual std::size_t size() const = 0;

  /// True normalized runtime (>= 1) of a `type` resident co-located
  /// with the `others` multiset (order irrelevant; empty = solo).
  virtual double slowdown(std::size_t type,
                          const std::vector<std::size_t>& others) = 0;

  /// Tail-latency slowdown: the ratio of the `type` resident's p99
  /// request latency under the `others` multiset to its solo p99.
  /// Only serving workloads have a request distribution; for batch
  /// residents (and for truths with no latency data, like MatrixTruth)
  /// this degenerates to the throughput slowdown -- the best available
  /// proxy, and the value SLO billing should see when no tail was
  /// measured.
  virtual double tail_slowdown(std::size_t type,
                               const std::vector<std::size_t>& others) {
    return slowdown(type, others);
  }

  /// The 2-resident projection: pairwise(fg, bg) == slowdown(fg, {bg}).
  virtual const CorunMatrix& pairwise() = 0;

  /// One raw 2-resident entry -- the unclamped measurement the
  /// simulator feeds observers. Default: slowdown(fg, {bg}), which is
  /// already raw for measured truths and only measures that pair;
  /// MatrixTruth overrides to bypass its composition clamp without
  /// touching pairwise() (which a lazy GroupTruth would have to build
  /// in full).
  virtual double pair_entry(std::size_t fg, std::size_t bg) {
    return slowdown(fg, {bg});
  }

  /// The price terms of admitting `job_type` with `job_work` units of
  /// work to a machine whose residents have `types` (in slot order).
  /// Returns the job's own term, its excess slowdown in the group
  /// times its whole work, and fills `coef` with one coefficient per
  /// slot: the excess the job inflicts on that resident -- the *group*
  /// slowdown delta, not a pair entry -- per unit of its remaining
  /// work. Machines whose residents share `types` share every term, so
  /// a pricer may ask once per such class. The answers, and the
  /// fallbacks a call counts, must depend only on the arguments.
  virtual double admission_terms(std::size_t job_type, double job_work,
                                 const std::vector<std::size_t>& types,
                                 std::vector<double>& coef);

  /// Machine time that admitting `job_type` with `job_work` units of
  /// work adds to a machine holding `residents` (with `remaining` solo
  /// work each): admission_terms()'s own term plus each coefficient
  /// times that resident's remaining work, summed in slot order. This
  /// is the billing primitive the cluster simulator prices every
  /// placement decision with. An override must keep that sum: the
  /// class-indexed pricers read the terms instead.
  virtual double admission_delta(std::size_t job_type, double job_work,
                                 const std::vector<std::size_t>& residents,
                                 const std::vector<double>& remaining);

  /// Queries answered by additive pairwise composition because no
  /// measurement covered the group.
  std::uint64_t fallbacks() const { return fallbacks_; }

  /// Adds to fallbacks() and to the process-wide metrics counter
  /// "truth.pairwise_fallbacks" (obs registry), so every truth
  /// implementation is counted on the same observable surface. A
  /// pricer that answers k machines from one admission_terms() call
  /// counts that call's fallbacks k - 1 more times here.
  void count_fallbacks(std::uint64_t n = 1);

 protected:
  std::uint64_t fallbacks_ = 0;
};

/// The legacy model as an oracle: pairwise excesses from a fixed
/// matrix compose additively (harness::corun_slowdown). Every group of
/// 3+ residents is by definition a composition, so such queries count
/// as fallbacks. admission_terms reproduces the pre-grouptruth billing
/// bit-for-bit.
class MatrixTruth final : public InterferenceTruth {
 public:
  explicit MatrixTruth(CorunMatrix m);

  std::size_t size() const override { return matrix_.size(); }
  double slowdown(std::size_t type,
                  const std::vector<std::size_t>& others) override;
  const CorunMatrix& pairwise() override { return matrix_; }
  /// Raw entry, unclamped -- slowdown() composes (and clamps) even a
  /// single co-resident to keep legacy event-loop timing.
  double pair_entry(std::size_t fg, std::size_t bg) override {
    return matrix_.at(fg, bg);
  }
  double admission_terms(std::size_t job_type, double job_work,
                         const std::vector<std::size_t>& types,
                         std::vector<double>& coef) override;

 private:
  CorunMatrix matrix_;
};

/// Measured group truth over a fixed workload axis.
///
/// A resident multiset {a, b, c} is measured the way the pair harness
/// measures a cell: one trial per distinct member type, with that
/// member running to completion ("foreground") on the first cores and
/// every other resident looping ("background") on the next ones --
/// GroupSpec::pair generalized to N members. slowdown(a, {b, c}) is the
/// foreground's cycles over its solo cycles at the same thread count.
/// Trials execute through ExperimentPlan (median-of-reps, RunCache
/// dedup), so repeated queries, overlapping prefetches, and repeated
/// process runs under COPERF_RUN_CACHE_DIR never re-simulate a group.
class GroupTruth final : public InterferenceTruth {
 public:
  struct Config {
    /// Axis: type index i == workloads[i] (paper order preserved).
    std::vector<std::string> workloads;
    /// Machine, size class, seed, sampling window, cycle limit. The
    /// thread-count fields are ignored; members use member_threads.
    RunOptions opt;
    /// Cores per resident. max_arity * member_threads must fit the
    /// machine (8-core default: 3-resident groups at 2 threads each).
    unsigned member_threads = 2;
    unsigned reps = 1;
    /// Largest resident count measured as a true group; bigger groups
    /// fall back to additive composition of the pairwise projection.
    unsigned max_arity = 3;
    /// Host worker lanes for the fan-out builds (prefetch_all and the
    /// lazy per-query residues). 0 = every CPU the process may run on
    /// (util::lane_count). The results are bit-identical at any
    /// lane count -- each trial simulates an isolated Machine -- so
    /// this only trades wall time for cores.
    unsigned host_threads = 0;
  };

  explicit GroupTruth(Config cfg);

  std::size_t size() const override { return cfg_.workloads.size(); }
  double slowdown(std::size_t type,
                  const std::vector<std::size_t>& others) override;
  /// Measured p99 ratio when both the group foreground and its solo
  /// baseline recorded requests; otherwise the throughput slowdown.
  /// Groups beyond max_arity fall back through slowdown() (counted).
  double tail_slowdown(std::size_t type,
                       const std::vector<std::size_t>& others) override;
  const CorunMatrix& pairwise() override;

  /// What one batched measurement put in front of the executor.
  struct PlanStats {
    std::size_t trials = 0;   ///< unique trials after structural dedup
    std::size_t residue = 0;  ///< trials the RunCache could not serve
  };

  /// Batch-measures every resident multiset of 2..max_group members
  /// over the axis in ONE plan execution (solos included), so the
  /// whole truth a bounded-slot cluster can query is simulated with
  /// full parallelism and exact RunCache dedup up front.
  PlanStats prefetch_all(unsigned max_group,
                         ExperimentPlan::Progress progress = {});
  /// Batch-measures the given resident multisets (each a vector of
  /// type indices, any order).
  PlanStats prefetch(const std::vector<std::vector<std::size_t>>& groups,
                     ExperimentPlan::Progress progress = {});

  /// Solo baseline of one axis type at member_threads (measured on
  /// first use).
  const RunResult& solo(std::size_t type);

  /// Every measured (type, others, slowdown) triple, sorted by key --
  /// the training/eval feed for group-aware predictors.
  std::vector<GroupObservation> observations() const;

  /// Distinct group measurements held (pairs included).
  std::size_t measured_trials() const { return measured_.size(); }

  /// Measurements whose foreground hit the cycle limit: the stored
  /// slowdown is a *lower bound* (the run was cut, not finished), so a
  /// nonzero count means the worst interference cases are understated
  /// -- raise RunOptions::cycle_limit or shrink the size class.
  /// Consumers should surface this (bench_cluster_regret warns).
  std::uint64_t truncated_trials() const { return truncated_; }

  const Config& config() const { return cfg_; }

 private:
  using Key = std::vector<std::size_t>;  ///< [fg type, sorted others...]

  static Key make_key(std::size_t type, std::vector<std::size_t> others);
  GroupSpec trial_spec(const Key& key) const;
  /// Measures the missing keys (plus any missing solo baselines) in
  /// one plan execution and memoizes the member slowdowns.
  PlanStats measure(const std::vector<Key>& keys,
                    ExperimentPlan::Progress progress);

  /// One measured group: the foreground's throughput and tail (p99)
  /// slowdowns. The tail is the throughput value when no latency data
  /// exists.
  struct Measurement {
    double slowdown = 1.0;
    double tail = 1.0;
  };

  Config cfg_;
  std::map<Key, Measurement> measured_;
  std::map<std::size_t, RunResult> solos_;
  CorunMatrix matrix_;
  std::uint64_t truncated_ = 0;
  bool pairwise_built_ = false;
};

}  // namespace coperf::harness
