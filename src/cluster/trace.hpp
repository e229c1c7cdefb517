// Arrival traces and the placement audit log (cluster subsystem).
//
// A trace is the online scheduler's input: a stream of jobs, each an
// instance of one of the co-run matrix's workload types, with an
// arrival time and a solo-work demand. synthetic_trace() draws one
// deterministically from a seed (exponential interarrivals, uniform
// work, uniform types); fleet_trace() generalizes it to datacenter
// shapes -- diurnal load, bursty (two-state modulated) arrivals and
// heavy-tailed Pareto durations, each at fixed parameters, and job
// priority classes -- so every experiment is reproducible bit-for-bit
// at any scale. TraceLog is the simulator's output side: every arrival,
// placement, and completion, rendered to text with fixed precision so
// the same seed yields byte-identical logs (the determinism property
// tests/cluster_test.cpp locks).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/mapped.hpp"

namespace coperf::cluster {

/// Highest admissible JobSpec::priority (inclusive): the simulator
/// keeps one FIFO lane per class, so the class count stays small.
inline constexpr unsigned kMaxPriority = 7;

/// One job in the arrival stream.
struct JobSpec {
  std::size_t id = 0;    ///< stable identity, echoed verbatim in the log
  std::size_t type = 0;  ///< index into the co-run matrix's workload axis
  double arrival = 0.0;  ///< simulated seconds, non-decreasing
  double work = 1.0;     ///< solo execution time this job needs
  /// Priority class (0 = best effort). Higher classes leave the
  /// waiting queue first; FIFO within a class. <= kMaxPriority.
  unsigned priority = 0;
  /// SLO class. > 0 marks the job latency-critical with this p99
  /// slowdown budget (e.g. 1.5 = "p99 request latency may stretch at
  /// most 1.5x over solo"); the simulator bills tail-latency regret on
  /// every decision that could blow such a budget. 0 (the default) =
  /// best-effort: billed on throughput only, exactly as before.
  double slo_p99 = 0.0;

  bool latency_critical() const { return slo_p99 > 0.0; }

  bool operator==(const JobSpec&) const = default;
};

struct TraceOptions {
  std::size_t jobs = 1000;
  std::uint64_t seed = 1;
  double mean_interarrival = 1.0;  ///< exponential interarrival mean
  double mean_work = 8.0;          ///< work uniform in [0.5, 1.5] x mean
};

/// Deterministic synthetic arrival stream over `n_types` workload
/// types. Same (n_types, options) => identical trace.
std::vector<JobSpec> synthetic_trace(std::size_t n_types,
                                     const TraceOptions& opt);

/// Arrival-process shapes for fleet_trace().
enum class ArrivalModel {
  Poisson,  ///< constant-rate exponential interarrivals
  /// Rate modulated sinusoidally: rate(t) = base * (1 + 0.75 *
  /// sin(2*pi*t / 1024)) -- the day/night load swing, one "day" per
  /// 1024 simulated time units.
  Diurnal,
  /// Two-state modulated Poisson: a burst state multiplies the rate by
  /// 8; state flips per arrival so bursts last 50 arrivals on average
  /// and hold 10% of all arrivals. Models incast/retry storms.
  Bursty,
};

/// Work-demand shapes for fleet_trace().
enum class WorkModel {
  Uniform,  ///< uniform in [0.5, 1.5] x mean_work (synthetic_trace's law)
  /// Pareto with tail index 1.8, scaled to unit mean and capped at 256x
  /// -- the heavy tail real cluster traces show (most jobs short, a few
  /// huge).
  Pareto,
};

struct FleetTraceOptions {
  std::size_t jobs = 100'000;
  std::uint64_t seed = 1;
  double mean_interarrival = 1.0;  ///< base (long-run) interarrival mean
  ArrivalModel arrivals = ArrivalModel::Poisson;
  WorkModel work = WorkModel::Uniform;
  double mean_work = 8.0;

  /// Priority-class mix: share per class, class index == priority
  /// (normalized internally; at most kMaxPriority + 1 classes). Empty
  /// = everything class 0.
  std::vector<double> class_shares;
};

/// Deterministic fleet-shaped arrival stream over `n_types` workload
/// types: same (n_types, options) => identical trace. Arrivals are
/// sorted, ids are dense trace order, work is positive.
std::vector<JobSpec> fleet_trace(std::size_t n_types,
                                 const FleetTraceOptions& opt);

/// One machine availability transition: at `time`, `machine` goes down
/// (Down -- every resident job is killed) or comes back (Up). The
/// fault-injection input of cluster::simulate.
struct FaultEvent {
  enum class Kind { Down, Up };
  double time = 0.0;
  std::size_t machine = 0;
  Kind kind = Kind::Down;

  bool operator==(const FaultEvent&) const = default;
};

struct FaultScheduleOptions {
  std::uint64_t seed = 1;
  /// Failures are drawn while they land before this simulated time;
  /// each failure's recovery is always emitted (possibly past the
  /// horizon), so every Down has a matching Up.
  double horizon = 1000.0;
  double mtbf = 500.0;  ///< mean up-time between failures (exponential)
  double mttr = 25.0;   ///< mean repair time (exponential)
};

/// Seed-deterministic per-machine failure/recovery process: alternating
/// exponential up-times (mean `mtbf`) and repair times (mean `mttr`),
/// merged and sorted by (time, machine). Each machine draws from its
/// own seed stream, so machine k's schedule does not depend on how many
/// machines the fleet has. Same (machines, options) => identical
/// schedule.
std::vector<FaultEvent> fault_schedule(std::size_t machines,
                                       const FaultScheduleOptions& opt);

/// One line of the simulator's audit log, packed to 32 bytes: a fleet
/// run logs millions. simulate() bounds the truth axis to 65536 types
/// and the fleet to 2^32 machines, so `type` and `machine` fit.
struct TraceEvent {
  /// Numbered in order, and hashed by number into audit-log digests, so
  /// a new kind goes last, with its row in kLineFormats (trace.cpp).
  enum class Kind : std::uint8_t {
    Arrive, Place, Finish, Fail, Recover, Evict, Shed
  };
  Kind kind = Kind::Arrive;
  std::uint16_t type = 0;
  std::uint32_t machine = 0;  ///< Place/Finish/Fail/Recover/Evict only
  double time = 0.0;
  std::size_t job = 0;  ///< JobSpec::id -- the same identity in all kinds
  /// Place: the policy's predicted cost delta for the chosen machine;
  /// Finish: the slowdown the job actually experienced;
  /// Evict/Shed: the solo work the job still needed (all of it: a
  /// killed or evicted job restarts from zero).
  double value = 0.0;
};
static_assert(sizeof(TraceEvent) == 32);

struct TraceLog {
  /// Mapped from 1 MiB on, as the outcomes are (util/mapped.hpp): a
  /// fleet run reserves four events per job.
  using Events = std::vector<TraceEvent, util::MappedAllocator<TraceEvent>>;
  Events events;

  /// Fixed-precision text rendering; workload names label the types.
  void write(std::ostream& os,
             const std::vector<std::string>& workloads) const;
  std::string str(const std::vector<std::string>& workloads) const;
};

}  // namespace coperf::cluster
