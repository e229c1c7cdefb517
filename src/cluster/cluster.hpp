// Streaming cluster-scale interference-aware scheduling (cluster
// subsystem).
//
// The paper's stated payoff for interference characterization is
// scheduling: keep destructive pairs off the same machine (Sections I,
// II-B). This module makes that decision *online*, the way a warehouse
// scheduler must: k machines with >= 2 co-run slots each, a stream of
// job arrivals and departures, and a PlacementPolicy consulted per
// arrival. Job progress follows a ground-truth oracle
// (harness::InterferenceTruth): measured N-resident group slowdowns
// when a GroupTruth backs the oracle, or additive pairwise composition
// over a CorunMatrix (MatrixTruth -- the legacy model, still what the
// synthetic tests use). After every placement the simulator reports
// the full group outcome -- every resident's true slowdown in the new
// group -- back to the policy, which is how the online-refined policy
// converges on the truth without dedicated pair runs. Everything is
// deterministic: same trace + same policy state => byte-identical
// audit log.
//
// simulate() is an indexed event loop built for fleet scale: cached
// per-machine slowdowns and ETAs, an indexed completion heap, a
// free-slot bitset with a rank index behind ClusterView, from the
// first decision that asks for it the open machines grouped by
// resident types (OpenClasses, behind ClusterView::open_classes(), so
// the cost-model policy prices classes instead of machines) and, with
// migration on, a per-class victim index (each documented in
// cluster.cpp). The engine only appends to its ClusterResult -- the
// audit log, the decision bills and the counts it keeps as it logs --
// and render_timeline() (timeline.cpp) derives the obs counters and
// the Perfetto timeline from that record, so tracing never changes
// results. Per job a run keeps its 32-byte JobOutcome, only what the
// engine decided: the job's spec stays in the caller's trace, at the
// same index. The tests pin the loop to the pre-fleet scan loop, kept
// as the executable specification in tests/cluster_reference.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/placement.hpp"
#include "cluster/trace.hpp"
#include "harness/grouptruth.hpp"
#include "harness/matrix.hpp"
#include "util/mapped.hpp"

namespace coperf::cluster {

/// Failure kills a job may survive before the engine gives up and
/// sheds it (a Shed event with its work still outstanding).
inline constexpr unsigned kMaxRetries = 3;

/// The requeue after a job's k-th failure kill (1 <= k <= kMaxRetries)
/// waits 2^(k-1) in simulated time. A killed job restarts from zero:
/// the whole attempt is lost.
constexpr double retry_delay(unsigned k) {
  return static_cast<double>(1u << (k - 1));
}

/// Policy-driven preemptive migration: when the highest waiting class
/// would otherwise queue with no slot free, evict a strictly
/// lower-priority resident (lowest class first, ties to the lowest
/// machine then slot), which restarts from zero, and requeue it
/// through the normal decision path. The victim comes from a per-class
/// index of the machines holding each class's residents, so a saturated
/// event with no strictly lower resident costs O(classes), not a scan
/// of the fleet.
struct MigrationConfig {
  bool preempt = false;
};

/// Admission control under overload: while the waiting queue holds
/// `queue_limit` jobs, arrivals of classes below `shed_below` are shed.
/// Shed work is billed into ClusterResult::shed_work and the per-class
/// stats (a shed job's admission delta is the solo work it would have
/// consumed).
struct AdmissionConfig {
  std::size_t queue_limit = 0;  ///< 0 = off
  unsigned shed_below = 1;      ///< classes < this are sheddable
};

struct ClusterConfig {
  std::size_t machines = 4;
  std::size_t slots = 2;  ///< co-run slots per machine, >= 2
  /// Workload names by job type, used only to label the rendered
  /// timeline (render_timeline); empty = "t<type>".
  std::vector<std::string> type_names;
  /// Bill every Nth decision at ground truth (1 = every one; 0 = none;
  /// see ClusterResult::bills). Billing prices every open machine, so
  /// sampling keeps fleet-scale runs affordable; skipped decisions
  /// issue no truth queries (so pairwise_fallbacks shrinks too).
  std::size_t regret_sample = 1;
  /// Machine failure/recovery schedule (fault_schedule(), or
  /// hand-built: sorted by time, alternating Down/Up per machine).
  /// Empty = no faults; the fault-free path is byte-identical to the
  /// pre-fault engine. Times must be finite.
  std::vector<FaultEvent> faults;
  MigrationConfig migration;
  AdmissionConfig admission;
};

/// What the engine decided for one job: 32 bytes, since a fleet run
/// keeps one per arrival. ClusterResult::outcomes is indexed by trace
/// position, so the job's own spec -- id, type, arrival, work -- is
/// trace[i], never copied here.
struct JobOutcome {
  double start = 0.0;   ///< FIRST placement time (== arrival unless queued)
  double finish = 0.0;  ///< 0 while unfinished (shed jobs never finish)
  std::uint32_t machine = 0;    ///< machine of the most recent placement
  std::uint32_t evictions = 0;  ///< times preemptively migrated
  /// Times killed by a machine failure (<= kMaxRetries).
  std::uint16_t retries = 0;
  bool shed = false;  ///< dropped (admission, or retries exhausted)

  bool completed() const { return finish > 0.0; }
  /// Solo-normalized turnaround including queueing, backoff, and lost
  /// work: >= 1.0 for completed jobs. `job` is this outcome's trace
  /// entry.
  double stretch(const JobSpec& job) const {
    return (finish - job.arrival) / job.work;
  }
  /// Solo-normalized time from first placement to completion: >= 1.0
  /// for completed jobs (equals the pure co-run slowdown when the job
  /// was never killed or migrated).
  double corun_slowdown(const JobSpec& job) const {
    return (finish - start) / job.work;
  }
};
static_assert(sizeof(JobOutcome) == 32);

/// Per-priority-class aggregate of a run -- the degradation surface
/// the fault bench compares policies on.
struct ClassStats {
  std::size_t jobs = 0;       ///< arrivals in this class
  std::size_t completed = 0;
  std::size_t shed = 0;       ///< admission sheds + retry exhaustions
  double work_arrived = 0.0;
  double work_completed = 0.0;
  /// Completed solo work per simulated-time unit, over the run's
  /// makespan: the class goodput under churn.
  double goodput = 0.0;
  double mean_stretch = 0.0;  ///< over completed jobs only
  /// Mean billed decision regret of this class's placements.
  double mean_regret = 0.0;
  std::size_t billed = 0;     ///< billed placements in this class
};

/// One decision's ground-truth bill (see ClusterResult::bills).
struct DecisionBill {
  double chosen = 0.0;     ///< true cost of the chosen machine
  double regret = 0.0;     ///< chosen - best open machine
  double lc_regret = 0.0;  ///< same, priced by slo_violation (0 off-LC)
};

/// Everything a run records: render_timeline() reads nothing else.
struct ClusterResult {
  /// Indexed by trace position. At fleet scale this block and `bills`
  /// are mapped, not malloc'd: at 30.5 MiB per million jobs the
  /// outcomes sit below glibc's mmap-threshold cap, so a freed block
  /// would be recycled through the heap and strand pages
  /// (util/mapped.hpp).
  std::vector<JobOutcome, util::MappedAllocator<JobOutcome>> outcomes;
  TraceLog log;  ///< every event, in the order the engine processed it
  /// Place events in the log: first placements and re-placements.
  std::size_t placements = 0;
  /// Failure kills that requeued the job (its Evict events on a failed
  /// machine): the sum of JobOutcome::retries.
  std::size_t retries = 0;
  /// One row per billed decision: decision d (the d-th Place event,
  /// from 0) is billed iff regret_sample != 0 and d % regret_sample ==
  /// 0, so bill k belongs to Place event k * regret_sample.
  std::vector<DecisionBill, util::MappedAllocator<DecisionBill>> bills;
  double mean_stretch = 0.0;         ///< mean JobOutcome::stretch()
  double mean_corun_slowdown = 0.0;  ///< mean JobOutcome::corun_slowdown()
  double makespan = 0.0;             ///< time the last job finished
  /// Mean DecisionBill::regret: the decision-quality metric (zero for
  /// the group-truth oracle by construction), immune to the queueing
  /// chaos that drowns out the placement signal in mean_stretch.
  double mean_decision_regret = 0.0;
  /// == bills.size(). Re-placements after kills and evictions are
  /// decisions too, so this can exceed outcomes.size().
  std::size_t billed_decisions = 0;
  /// Ground-truth queries this run answered by additive pairwise
  /// composition instead of a measurement (resident groups above the
  /// truth's measured arity; every 3+-resident query for MatrixTruth).
  std::uint64_t pairwise_fallbacks = 0;

  // --- fault-injection / graceful-degradation accounting -------------
  // All zero on a fault-free run with admission and migration off.
  std::size_t failures = 0;    ///< machine Down events processed
  std::size_t recoveries = 0;  ///< machine Up events processed
  std::size_t fault_kills = 0; ///< resident jobs killed by failures
  std::size_t migrations = 0;  ///< preemptive evictions for priority
  std::size_t shed_jobs = 0;   ///< admission sheds + retry exhaustions
  double shed_work = 0.0;      ///< solo work still owed by shed jobs
  std::size_t completed_jobs = 0;
  /// Per-priority-class breakdown, indexed by class (size = highest
  /// class in the trace + 1). mean_stretch / mean_corun_slowdown /
  /// makespan above aggregate completed jobs only once any job is shed.
  std::vector<ClassStats> class_stats;

  // --- SLO / tail-latency accounting ----------------------------------
  // All zero when no job in the trace is latency-critical (every
  // slo_p99 == 0); the billing then issues no tail_slowdown queries,
  // so batch-only runs stay byte-identical to the pre-SLO engine.
  /// Arrivals with an SLO budget (JobSpec::slo_p99 > 0).
  std::size_t lc_jobs = 0;
  /// Mean DecisionBill::lc_regret, billed at EVERY billed decision
  /// once lc_jobs > 0, not only at LC arrivals -- a best-effort
  /// aggressor placed next to a running LC job is what blows its p99,
  /// and that decision must pay for it.
  double mean_lc_tail_regret = 0.0;
  /// Billed decisions whose chosen machine carried a nonzero true SLO
  /// violation -- some latency-critical budget was blown.
  std::size_t slo_violation_decisions = 0;
};

/// Runs the indexed event loop: arrivals queue per priority class
/// (FIFO within a class, higher classes first), a job is admitted
/// whenever a slot is free (the policy picks the machine through
/// ClusterView), and runs at a rate of 1/slowdown, the truth oracle's
/// answer for its machine's current resident group. Each placement
/// reports the new group's true slowdowns to the policy through
/// observe_group() (the legacy observe_pair() feedback for 2-resident
/// groups).
///
/// Faults, migration and admission control (ClusterConfig) are off by
/// default, and byte-identical to the fault-free engine when off; every
/// such action is an audit event, so fault runs replay byte-identically
/// from the same seed. On ties, completions beat failures (a job
/// finishing as its machine dies finished), and recoveries and requeues
/// beat arrivals.
ClusterResult simulate(const ClusterConfig& cfg,
                       harness::InterferenceTruth& truth,
                       const std::vector<JobSpec>& trace,
                       PlacementPolicy& policy);

/// Publishes a finished run of simulate() (which calls it) from the
/// result alone: the cluster.* counters (each the matching result
/// field) and the cluster.goodput.p<class> gauges. When obs::Trace is
/// recording it also replays the log into a simulated-time process of
/// its own (1 work unit renders as 1 ms): per machine lane, a span per
/// constant resident multiset ("hog+victim"), DOWN spans, a "place
/// <type>" instant per decision (policy, predicted cost, queued_for
/// and, when billed, true cost, regret and LC regret) and an "evict
/// <type>" instant per preemption; and a queue_depth counter sampled
/// once per instant a job joins or leaves the waiting lanes.
void render_timeline(const ClusterConfig& cfg,
                     const std::vector<JobSpec>& trace,
                     const std::string& policy, const ClusterResult& res);

}  // namespace coperf::cluster
