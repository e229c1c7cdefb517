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
// simulate() is an indexed event loop built for fleet scale:
//  - each machine's resident slowdowns and completion ETAs are cached
//    and recomputed only when its resident multiset changes;
//  - an indexed heap of per-machine next completions replaces a
//    per-event rescan: one entry per busy machine, keyed by (eta,
//    machine) with the lowest slot first within a machine, re-keyed in
//    place on every resident-set change and dropped when the machine
//    empties;
//  - a free-slot bitset with a rank index feeds the policies'
//    ClusterView: any kth_open in O(log words), ascending ones in O(1),
//    and each priced candidate is materialized into one scratch view
//    (no per-machine view cache), so a decision costs only the
//    candidates it prices;
//  - with migration on, a per-class resident index (per priority
//    class, a bitset of the machines holding one of its residents)
//    finds the preemption victim without scanning the fleet.
// Candidates are priced in two loops: the policies' one argmin
// (placement.cpp) and the regret bill, which walks the free-slot
// bitset itself and prices every open machine at ground truth with the
// same placement_delta and slo_violation. Remaining work is
// decremented once per constant-rate interval (clamped at zero), so
// completion arithmetic does not drift. The tests pin the loop to the
// pre-fleet scan loop, kept as the executable specification in
// tests/cluster_reference.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/placement.hpp"
#include "cluster/trace.hpp"
#include "harness/grouptruth.hpp"
#include "harness/matrix.hpp"

namespace coperf::cluster {

/// What happens to a job killed by a machine failure: bounded retries
/// with exponential backoff in simulated time, and a configurable
/// work-loss model.
struct RetryConfig {
  /// Failure kills a job may survive before the engine gives up and
  /// sheds it (a Shed event with its work still outstanding).
  unsigned max_retries = 3;
  /// Simulated-time delay before the first requeue; doubles (times
  /// `backoff_factor`) per consecutive kill of the same job.
  double backoff = 1.0;
  double backoff_factor = 2.0;
  /// Work-loss model: the fraction of the killed attempt's executed
  /// work that survives the kill. 0 = restart-from-zero (the whole
  /// attempt is lost), 1 = perfect checkpointing (only in-flight time
  /// is lost). Applies to failure kills and migration evictions alike.
  double checkpoint = 0.0;
};

/// Policy-driven preemptive migration: when the highest waiting class
/// would otherwise queue with no slot free, evict a strictly
/// lower-priority resident (lowest class first, ties to the lowest
/// machine then slot), charge it the RetryConfig work-loss model as
/// the restart penalty, and requeue it through the normal decision
/// path. The victim comes from a per-class index of the machines
/// holding each class's residents, so a saturated event with no
/// strictly lower resident costs O(classes), not a scan of the fleet.
struct MigrationConfig {
  bool preempt = false;
};

/// Admission control under overload: when the waiting queue is deeper
/// than `queue_limit` (or alive-slot utilization is at least
/// `util_limit`), arrivals of classes below `shed_below` are shed
/// outright -- or deferred by `defer_delay` first, up to `max_defers`
/// times, when deferral is enabled. Shed work is billed into
/// ClusterResult::shed_work and the per-class stats (a shed job's
/// admission delta is the solo work it would have consumed).
struct AdmissionConfig {
  std::size_t queue_limit = 0;  ///< 0 = no queue-depth threshold
  double util_limit = 0.0;      ///< busy/alive slot fraction; 0 = off
  unsigned shed_below = 1;      ///< classes < this are sheddable
  double defer_delay = 0.0;     ///< > 0: defer before shedding
  unsigned max_defers = 0;      ///< defers before an overloaded shed

  bool enabled() const { return queue_limit > 0 || util_limit > 0.0; }
};

struct ClusterConfig {
  std::size_t machines = 4;
  std::size_t slots = 2;  ///< co-run slots per machine, >= 2
  /// Optional workload names indexed by job type, used only to label
  /// the observability timeline (obs::Trace); empty = "t<type>". Has
  /// no effect on simulation results.
  std::vector<std::string> type_names;
  /// Bill ground-truth decision regret on every Nth placement (1 =
  /// every placement, the exact legacy accounting; 0 = never).
  /// Billing prices every open machine at ground truth, so sampling
  /// keeps fleet-scale runs affordable; mean_decision_regret averages
  /// over the billed decisions only, and skipped decisions issue no
  /// truth queries (so pairwise_fallbacks shrinks accordingly).
  std::size_t regret_sample = 1;
  /// Machine failure/recovery schedule (fault_schedule(), or
  /// hand-built: sorted by time, alternating Down/Up per machine).
  /// Empty = no faults; the fault-free path is byte-identical to the
  /// pre-fault engine. Times must be finite.
  std::vector<FaultEvent> faults;
  RetryConfig retry;
  MigrationConfig migration;
  AdmissionConfig admission;
};

/// What happened to one job.
struct JobOutcome {
  std::size_t job = 0;  ///< JobSpec::id
  std::size_t type = 0;
  std::size_t machine = 0;  ///< machine of the most recent placement
  double arrival = 0.0;
  double start = 0.0;   ///< FIRST placement time (== arrival unless queued)
  double finish = 0.0;  ///< 0 while unfinished (shed jobs never finish)
  double work = 0.0;    ///< the original solo-work demand
  unsigned retries = 0;    ///< times killed by a machine failure
  unsigned evictions = 0;  ///< times preemptively migrated
  unsigned defers = 0;     ///< times deferred by admission control
  bool shed = false;       ///< dropped (admission, or retries exhausted)

  bool completed() const { return finish > 0.0; }
  /// Solo-normalized turnaround including queueing, backoff, and lost
  /// work: >= 1.0 for completed jobs.
  double stretch() const { return (finish - arrival) / work; }
  /// Solo-normalized time from first placement to completion: >= 1.0
  /// for completed jobs (equals the pure co-run slowdown when the job
  /// was never killed or migrated).
  double corun_slowdown() const { return (finish - start) / work; }
};

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

struct ClusterResult {
  std::vector<JobOutcome> outcomes;  ///< indexed by trace position
  TraceLog log;
  double mean_stretch = 0.0;         ///< mean JobOutcome::stretch()
  double mean_corun_slowdown = 0.0;  ///< mean JobOutcome::corun_slowdown()
  double makespan = 0.0;             ///< time the last job finished
  /// Placement regret, billed per decision at ground truth: mean over
  /// billed decisions of (true admission_delta of the chosen machine)
  /// - (true admission_delta of the best available machine). Zero for
  /// the group-truth oracle by construction; the decision-quality
  /// metric the regret bench and tests compare, immune to downstream
  /// queueing chaos that otherwise drowns out the placement signal in
  /// mean_stretch. With ClusterConfig::regret_sample == 1 every
  /// decision is billed (the legacy accounting).
  double mean_decision_regret = 0.0;
  /// Decisions actually billed at ground truth (== outcomes.size()
  /// unless regret_sample != 1).
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
  /// Mean LC tail regret over billed decisions: true SLO violation
  /// cost of the chosen machine minus the best open machine's (see
  /// slo_violation). Billed at EVERY billed decision, not only LC
  /// arrivals -- a best-effort aggressor placed next to a running LC
  /// job is what blows its p99, and that decision must pay for it.
  double mean_lc_tail_regret = 0.0;
  /// Billed decisions on a latency-critical trace (== billed_decisions
  /// when any job carries an SLO; 0 otherwise).
  std::size_t lc_billed_decisions = 0;
  /// Billed decisions whose chosen machine carried a nonzero true SLO
  /// violation -- some latency-critical budget was blown.
  std::size_t slo_violation_decisions = 0;
};

/// Runs the indexed event loop: arrivals queue per priority class
/// (FIFO within a class, higher classes first; all-zero priorities ==
/// plain FIFO), a job is admitted whenever a slot is free (policy
/// picks the machine through ClusterView), and runs to completion at a
/// rate of 1/slowdown where the slowdown is the truth oracle's answer
/// for the machine's current resident group.
///
/// Fault injection and graceful degradation (all off by default, and
/// byte-identical to the fault-free engine when off): a FaultEvent
/// schedule takes machines down (killing residents, which requeue
/// through RetryConfig's bounded exponential backoff and work-loss
/// model) and brings them back; MigrationConfig lets a waiting
/// high-priority job preempt a strictly lower-priority resident; and
/// AdmissionConfig sheds or defers best-effort arrivals under
/// overload. Every such action is audited (Fail/Recover/Evict/Shed/
/// Defer events), so fault runs replay byte-identically from the same
/// seed. Completions beat same-instant failures (a job finishing as
/// its machine dies finished); recoveries and requeues beat
/// same-instant arrivals. Each placement reports
/// the full new group outcome (per-member true slowdowns) to the
/// policy via observe_group(); for 2-resident groups that decomposes
/// into the legacy observe_pair() feedback.
///
/// When obs::Trace is recording, the run additionally emits a
/// simulated-time timeline in its own trace process (1 work unit
/// renders as 1 ms): one lane per machine holding resident-set spans
/// (a span per interval of constant resident multiset, labeled with
/// the member names), a per-decision instant event on the chosen
/// machine's lane carrying the policy name, its predicted cost, the
/// true cost, and the billed regret (true cost/regret only on billed
/// decisions), plus a queue-depth counter track. Tracing never changes
/// results -- it only reads simulator state.
ClusterResult simulate(const ClusterConfig& cfg,
                       harness::InterferenceTruth& truth,
                       const std::vector<JobSpec>& trace,
                       PlacementPolicy& policy);

}  // namespace coperf::cluster
