#include "cluster/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace coperf::cluster {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Simulated-time scale on the trace: 1 unit of work = 1 ms displayed.
constexpr double kTraceUsPerUnit = 1000.0;

void validate(const ClusterConfig& cfg, const harness::InterferenceTruth& truth,
              const std::vector<JobSpec>& trace, bool fleet_engine) {
  if (cfg.machines == 0)
    throw std::invalid_argument{"simulate: need at least one machine"};
  if (cfg.slots < 2)
    throw std::invalid_argument{"simulate: co-run machines need >= 2 slots"};
  if (truth.size() == 0)
    throw std::invalid_argument{"simulate: empty ground truth"};
  double prev = 0.0;
  for (const JobSpec& j : trace) {
    if (j.type >= truth.size())
      throw std::invalid_argument{"simulate: job type outside the truth axis"};
    if (j.work <= 0.0)
      throw std::invalid_argument{"simulate: job work must be positive"};
    if (j.arrival < prev)
      throw std::invalid_argument{"simulate: arrivals must be sorted"};
    if (j.priority > kMaxPriority)
      throw std::invalid_argument{"simulate: job priority above kMaxPriority"};
    if (j.slo_p99 < 0.0)
      throw std::invalid_argument{"simulate: job slo_p99 must be >= 0"};
    if (!fleet_engine && j.priority != 0)
      throw std::invalid_argument{
          "simulate_reference: the reference loop is priority-blind"};
    if (!fleet_engine && j.latency_critical())
      throw std::invalid_argument{
          "simulate_reference: the reference loop is SLO-blind"};
    prev = j.arrival;
  }
  if (!fleet_engine) {
    if (!cfg.faults.empty() || cfg.migration.preempt || cfg.admission.enabled())
      throw std::invalid_argument{
          "simulate_reference: the reference loop is fault-blind (no fault "
          "schedule, migration, or admission control)"};
    return;
  }
  double prev_fault = 0.0;
  std::vector<char> down(cfg.machines, 0);
  for (const FaultEvent& f : cfg.faults) {
    if (f.machine >= cfg.machines)
      throw std::invalid_argument{"simulate: fault event machine out of range"};
    if (f.time < prev_fault)
      throw std::invalid_argument{"simulate: fault events must be sorted"};
    const bool is_down = f.kind == FaultEvent::Kind::Down;
    if (is_down == static_cast<bool>(down[f.machine]))
      throw std::invalid_argument{
          "simulate: fault events must alternate Down/Up per machine"};
    down[f.machine] = is_down ? 1 : 0;
    prev_fault = f.time;
  }
  if (cfg.retry.backoff < 0.0 || cfg.retry.backoff_factor < 1.0)
    throw std::invalid_argument{
        "simulate: retry backoff must be >= 0 with factor >= 1"};
  if (cfg.retry.checkpoint < 0.0 || cfg.retry.checkpoint > 1.0)
    throw std::invalid_argument{"simulate: retry checkpoint must be in [0, 1]"};
  if (cfg.admission.util_limit < 0.0 || cfg.admission.util_limit > 1.0)
    throw std::invalid_argument{
        "simulate: admission util_limit must be in [0, 1]"};
  if (cfg.admission.defer_delay < 0.0)
    throw std::invalid_argument{"simulate: admission defer_delay must be >= 0"};
}

// --- indexed fleet engine -------------------------------------------

/// One running job in the indexed engine. `remaining` is materialized
/// as of the owning machine's `upd` time; `slowdown` and `eta` are
/// valid for the machine's current resident multiset.
struct Resident {
  std::size_t job = 0;   ///< trace index
  std::size_t type = 0;
  double remaining = 0.0;
  double slowdown = 1.0;
  double eta = kInf;     ///< absolute completion estimate
  double slo = 0.0;      ///< JobSpec::slo_p99 (0 = best-effort)
};

struct MachineState {
  std::vector<Resident> residents;
  double upd = 0.0;           ///< time `remaining` values were materialized
  std::uint64_t version = 0;  ///< bumped on every resident-set change
  double next_eta = kInf;     ///< min resident eta (ties: lowest slot)
  std::size_t next_pos = 0;
};

/// Machines with >= 1 free slot, as a bitset: O(1) toggle, popcount
/// count, and word-scan enumeration -- the free-slot index behind
/// ClusterView::kth_open.
class OpenSet {
 public:
  explicit OpenSet(std::size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  void set(std::size_t i) {
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t b = 1ull << (i & 63);
    if (!(w & b)) {
      w |= b;
      ++count_;
    }
  }
  void clear(std::size_t i) {
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t b = 1ull << (i & 63);
    if (w & b) {
      w &= ~b;
      --count_;
    }
  }
  std::size_t count() const { return count_; }

  /// First open machine with index >= from; n (== machines) if none.
  std::size_t next(std::size_t from) const {
    if (from >= n_) return n_;
    std::size_t wi = from >> 6;
    std::uint64_t w = words_[wi] & (~0ull << (from & 63));
    while (true) {
      if (w) return (wi << 6) + static_cast<std::size_t>(std::countr_zero(w));
      if (++wi == words_.size()) return n_;
      w = words_[wi];
    }
  }

 private:
  std::size_t n_;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

/// The policies' window into the engine. Views materialize lazily and
/// are cached per event stamp; kth_open serves the ascending scans the
/// policies and the regret billing do in O(1) amortized per step.
class EngineView final : public ClusterView {
 public:
  EngineView(const std::vector<MachineState>& ms, const OpenSet& open,
             std::size_t slots, const double& t, const std::uint64_t& stamp)
      : ms_(ms),
        open_(open),
        slots_(slots),
        t_(t),
        stamp_(stamp),
        views_(ms.size()),
        view_stamp_(ms.size(), 0) {}

  std::size_t machines() const override { return ms_.size(); }
  std::size_t open_count() const override { return open_.count(); }

  std::size_t kth_open(std::size_t k) const override {
    const bool warm = scan_stamp_ == stamp_;
    std::size_t m, kk;
    if (warm && k == last_k_) return last_m_;
    if (warm && k == last_k_ + 1) {
      m = open_.next(last_m_ + 1);
    } else {
      m = open_.next(0);
      for (kk = 0; kk < k && m < ms_.size(); ++kk) m = open_.next(m + 1);
    }
    if (m >= ms_.size())
      throw std::out_of_range{"ClusterView::kth_open: index past open set"};
    scan_stamp_ = stamp_;
    last_k_ = k;
    last_m_ = m;
    return m;
  }

  std::size_t free_slots(std::size_t m) const override {
    return slots_ - ms_[m].residents.size();
  }

  const MachineView& view(std::size_t m) const override {
    MachineView& v = views_[m];
    if (view_stamp_[m] != stamp_) {
      const MachineState& s = ms_[m];
      v.free_slots = slots_ - s.residents.size();
      v.residents.clear();
      for (const Resident& r : s.residents)
        v.residents.push_back(
            {r.type,
             std::max(0.0, r.remaining - (t_ - s.upd) / r.slowdown),
             r.slo});
      view_stamp_[m] = stamp_;
    }
    return v;
  }

 private:
  const std::vector<MachineState>& ms_;
  const OpenSet& open_;
  std::size_t slots_;
  const double& t_;
  const std::uint64_t& stamp_;
  mutable std::vector<MachineView> views_;
  mutable std::vector<std::uint64_t> view_stamp_;
  mutable std::uint64_t scan_stamp_ = 0;
  mutable std::size_t last_k_ = 0;
  mutable std::size_t last_m_ = 0;
};

/// Min-heap entry: machine `machine`'s earliest completion, valid while
/// its version matches (lazy invalidation -- a resident-set change
/// bumps the version and pushes a fresh entry).
struct HeapEntry {
  double eta = kInf;
  std::size_t machine = 0;
  std::uint64_t version = 0;
};
struct HeapLater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.eta != b.eta) return a.eta > b.eta;
    return a.machine > b.machine;  // deterministic: lowest machine first
  }
};

/// A killed or deferred job waiting out its simulated-time delay before
/// re-entering the waiting lanes. Min-heap by (ready, jid) so
/// same-instant requeues drain in trace order.
struct Requeue {
  double ready = 0.0;
  std::size_t jid = 0;
  bool deferred = false;  ///< re-check admission control on re-entry
};
struct RequeueLater {
  bool operator()(const Requeue& a, const Requeue& b) const {
    if (a.ready != b.ready) return a.ready > b.ready;
    return a.jid > b.jid;
  }
};

}  // namespace

ClusterResult simulate(const ClusterConfig& cfg,
                       harness::InterferenceTruth& truth,
                       const std::vector<JobSpec>& trace,
                       PlacementPolicy& policy) {
  validate(cfg, truth, trace, /*fleet_engine=*/true);
  const std::uint64_t fallbacks_before = truth.fallbacks();

  std::vector<MachineState> machines(cfg.machines);
  OpenSet open(cfg.machines);
  for (std::size_t m = 0; m < cfg.machines; ++m) open.set(m);
  std::vector<char> alive(cfg.machines, 1);
  std::size_t alive_machines = cfg.machines;

  unsigned max_priority = 0;
  for (const JobSpec& j : trace) max_priority = std::max(max_priority, j.priority);
  std::vector<std::deque<std::size_t>> waiting(max_priority + 1);
  std::size_t waiting_count = 0;

  ClusterResult res;
  res.outcomes.resize(trace.size());
  // Does any job carry an SLO budget? When not, the LC billing below
  // is skipped entirely -- no tail_slowdown queries are issued, so
  // batch-only runs are byte-identical to the pre-SLO engine.
  bool any_lc = false;
  for (const JobSpec& j : trace)
    if (j.latency_critical()) {
      any_lc = true;
      ++res.lc_jobs;
    }
  // Solo work a job still owes at its next placement: its full demand
  // until a failure kill or eviction applies the work-loss model.
  std::vector<double> pending(trace.size(), 0.0);
  std::vector<char> placed(trace.size(), 0);  // first placement recorded
  std::vector<double> class_regret(max_priority + 1, 0.0);
  std::vector<std::size_t> class_billed(max_priority + 1, 0);
  double t = 0.0;
  std::uint64_t stamp = 1;
  std::size_t next_arrival = 0;
  std::size_t running_count = 0;
  std::size_t decisions = 0;
  std::size_t next_fault = 0;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLater> heap;
  std::priority_queue<Requeue, std::vector<Requeue>, RequeueLater> requeue;
  EngineView cview{machines, open, cfg.slots, t, stamp};

  // Observability: a simulated-time timeline (own trace process per
  // run, so back-to-back policy sweeps do not overwrite each other's
  // lanes) plus registry counters. Everything is read-only over the
  // loop's state and branch-free when disabled.
  obs::Trace& tr = obs::Trace::instance();
  const bool traced = tr.enabled();
  const int trace_pid = traced ? tr.next_pid() : 0;
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& placements_ctr = reg.counter("cluster.placements");
  obs::Counter& completions_ctr = reg.counter("cluster.completions");
  obs::Counter& failures_ctr = reg.counter("cluster.failures");
  obs::Counter& recoveries_ctr = reg.counter("cluster.recoveries");
  obs::Counter& fault_kills_ctr = reg.counter("cluster.fault_kills");
  obs::Counter& retries_ctr = reg.counter("cluster.retries");
  obs::Counter& migrations_ctr = reg.counter("cluster.migrations");
  obs::Counter& shed_ctr = reg.counter("cluster.shed");
  if (traced) {
    tr.name_process(trace_pid, "cluster " + policy.name() + " (" +
                                   std::to_string(cfg.machines) + "x" +
                                   std::to_string(cfg.slots) +
                                   ", simulated time)");
    for (std::size_t m = 0; m < cfg.machines; ++m)
      tr.name_thread(trace_pid, static_cast<int>(m),
                     "machine " + std::to_string(m));
  }
  const auto type_label = [&](std::size_t type) -> std::string {
    if (type < cfg.type_names.size()) return cfg.type_names[type];
    std::string label{"t"};
    label += std::to_string(type);
    return label;
  };
  // Start of the current constant-resident-set interval, per machine.
  std::vector<double> lane_since(traced ? cfg.machines : 0, 0.0);
  // When the machine's current outage began (traced runs only).
  std::vector<double> down_since(traced ? cfg.machines : 0, 0.0);
  // Closes machine m's resident-set span at the current time `t`; call
  // BEFORE mutating its residents.
  const auto close_lane = [&](std::size_t m) {
    if (!traced) return;
    if (!machines[m].residents.empty() && t > lane_since[m]) {
      std::string label;
      for (const Resident& r : machines[m].residents) {
        if (!label.empty()) label += '+';
        label += type_label(r.type);
      }
      tr.complete(trace_pid, static_cast<int>(m), std::move(label),
                  lane_since[m] * kTraceUsPerUnit,
                  (t - lane_since[m]) * kTraceUsPerUnit,
                  obs::Args{}.set("residents", machines[m].residents.size())
                      .str());
    }
    lane_since[m] = t;
  };
  const auto emit_queue_depth = [&] {
    if (traced)
      tr.counter_at(trace_pid, "queue_depth", t * kTraceUsPerUnit,
                    static_cast<double>(waiting_count));
  };

  // Brings machine m's remaining-work accounting up to `t`: one
  // decrement per resident per constant-rate interval, clamped at zero
  // so completion arithmetic never leaves a negative residue.
  const auto materialize = [&](MachineState& ms) {
    if (ms.upd == t) return;
    for (Resident& r : ms.residents)
      r.remaining = std::max(0.0, r.remaining - (t - ms.upd) / r.slowdown);
    ms.upd = t;
  };

  // Scratch buffers reused across all truth queries and observations.
  std::vector<std::size_t> others_scratch, group_scratch;
  std::vector<double> gslow_scratch;

  // Re-derives machine m's cached rates after a resident-set change at
  // time `t` (call with `remaining` already materialized to `t`): one
  // truth query per resident, fresh ETAs, new heap entry.
  const auto reindex = [&](std::size_t m) {
    MachineState& ms = machines[m];
    ++ms.version;
    ms.next_eta = kInf;
    ms.next_pos = 0;
    for (std::size_t i = 0; i < ms.residents.size(); ++i) {
      others_scratch.clear();
      for (std::size_t j = 0; j < ms.residents.size(); ++j)
        if (j != i) others_scratch.push_back(ms.residents[j].type);
      ms.residents[i].slowdown =
          truth.slowdown(ms.residents[i].type, others_scratch);
    }
    for (std::size_t i = 0; i < ms.residents.size(); ++i) {
      Resident& r = ms.residents[i];
      r.eta = t + std::max(0.0, r.remaining) * r.slowdown;
      if (r.eta < ms.next_eta) {
        ms.next_eta = r.eta;
        ms.next_pos = i;
      }
    }
    if (!ms.residents.empty()) heap.push({ms.next_eta, m, ms.version});
  };

  // --- graceful-degradation helpers (inert on a fault-free run) -------

  // Admission-control overload predicate: queue depth at the limit, or
  // busy share of the *alive* slot pool at the utilization limit. An
  // all-down fleet counts as overloaded.
  const auto overloaded = [&] {
    const AdmissionConfig& adm = cfg.admission;
    if (adm.queue_limit > 0 && waiting_count >= adm.queue_limit) return true;
    if (adm.util_limit > 0.0) {
      const double cap =
          static_cast<double>(alive_machines * cfg.slots);
      if (cap <= 0.0) return true;
      if (static_cast<double>(running_count) >= adm.util_limit * cap)
        return true;
    }
    return false;
  };

  // Drops a job for good: its outstanding solo work is the admission
  // delta of never running it, billed into shed_work / class stats.
  const auto shed_job = [&](std::size_t jid) {
    JobOutcome& out = res.outcomes[jid];
    out.shed = true;
    ++res.shed_jobs;
    res.shed_work += pending[jid];
    shed_ctr.add();
    res.log.events.push_back({TraceEvent::Kind::Shed, t, trace[jid].id,
                              trace[jid].type, 0, pending[jid]});
  };

  // Queues a job into its priority lane, re-checking admission control
  // when asked (fresh arrivals and deferred re-entries; failure retries
  // were already admitted and skip the check).
  const auto admit = [&](std::size_t jid, bool check_admission) {
    const JobSpec& job = trace[jid];
    JobOutcome& out = res.outcomes[jid];
    if (check_admission && cfg.admission.enabled() &&
        job.priority < cfg.admission.shed_below && overloaded()) {
      if (cfg.admission.defer_delay > 0.0 &&
          out.defers < cfg.admission.max_defers) {
        ++out.defers;
        const double until = t + cfg.admission.defer_delay;
        res.log.events.push_back(
            {TraceEvent::Kind::Defer, t, job.id, job.type, 0, until});
        requeue.push({until, jid, /*deferred=*/true});
      } else {
        shed_job(jid);
      }
      return;
    }
    waiting[job.priority].push_back(jid);
    ++waiting_count;
    emit_queue_depth();
  };

  // Applies the work-loss model to a resident killed at time `t` with
  // `remaining` solo work left in its current attempt (materialized),
  // then requeues it with exponential backoff -- or sheds it once its
  // retry budget is spent.
  const auto kill_resident = [&](std::size_t jid, double remaining,
                                 std::size_t m) {
    const double executed = pending[jid] - remaining;
    pending[jid] =
        std::max(0.0, pending[jid] - cfg.retry.checkpoint * executed);
    JobOutcome& out = res.outcomes[jid];
    ++res.fault_kills;
    fault_kills_ctr.add();
    if (out.retries >= cfg.retry.max_retries) {
      shed_job(jid);
      return;
    }
    ++out.retries;
    retries_ctr.add();
    const double delay =
        cfg.retry.backoff *
        std::pow(cfg.retry.backoff_factor,
                 static_cast<double>(out.retries - 1));
    res.log.events.push_back({TraceEvent::Kind::Evict, t, trace[jid].id,
                              trace[jid].type, m, pending[jid]});
    requeue.push({t + delay, jid, /*deferred=*/false});
  };

  const auto drain_waiting = [&] {
    while (waiting_count > 0) {
      if (open.count() == 0) {
        // Preemptive migration: let the highest waiting class claim a
        // slot from a strictly lower-priority resident (lowest class
        // first; ties to the lowest machine then slot). The victim
        // pays the work-loss restart penalty and requeues immediately
        // at the back of its own lane -- no backoff, it did nothing
        // wrong. Progress is guaranteed: every eviction is followed by
        // a strictly higher-priority placement.
        if (!cfg.migration.preempt) break;
        std::size_t top = 0;
        for (std::size_t c = waiting.size(); c-- > 0;) {
          if (!waiting[c].empty()) {
            top = c;
            break;
          }
        }
        std::size_t vm = cfg.machines, vs = 0;
        unsigned vprio = 0;
        for (std::size_t m = 0; m < cfg.machines; ++m) {
          for (std::size_t s = 0; s < machines[m].residents.size(); ++s) {
            const unsigned p = trace[machines[m].residents[s].job].priority;
            if (p >= top) continue;
            if (vm == cfg.machines || p < vprio) {
              vm = m;
              vs = s;
              vprio = p;
            }
          }
        }
        if (vm == cfg.machines) break;  // nothing strictly lower to evict
        MachineState& vms = machines[vm];
        const std::size_t vjid = vms.residents[vs].job;
        close_lane(vm);  // the resident set is about to change
        materialize(vms);
        const double vleft = vms.residents[vs].remaining;
        const double vexecuted = pending[vjid] - vleft;
        pending[vjid] = std::max(
            0.0, pending[vjid] - cfg.retry.checkpoint * vexecuted);
        vms.residents.erase(vms.residents.begin() +
                            static_cast<std::ptrdiff_t>(vs));
        open.set(vm);
        reindex(vm);
        --running_count;
        ++stamp;
        ++res.migrations;
        migrations_ctr.add();
        ++res.outcomes[vjid].evictions;
        res.log.events.push_back({TraceEvent::Kind::Evict, t, trace[vjid].id,
                                  trace[vjid].type, vm, pending[vjid]});
        if (traced)
          tr.instant_at(trace_pid, static_cast<int>(vm),
                        "evict " + type_label(trace[vjid].type),
                        t * kTraceUsPerUnit,
                        obs::Args{}
                            .set("job", trace[vjid].id)
                            .set("for_class", top)
                            .set("work_left", pending[vjid])
                            .str());
        waiting[vprio].push_back(vjid);
        ++waiting_count;
        emit_queue_depth();
        continue;
      }
      std::size_t jid = 0;
      for (std::size_t c = waiting.size(); c-- > 0;) {
        if (!waiting[c].empty()) {
          jid = waiting[c].front();
          waiting[c].pop_front();
          --waiting_count;
          break;
        }
      }
      // The job demands only its outstanding work: identical to the
      // original spec until a kill or eviction shrinks it.
      JobSpec job = trace[jid];
      job.work = pending[jid];
      const std::size_t m = policy.place(job, cview);
      if (m >= cfg.machines || machines[m].residents.size() >= cfg.slots)
        throw std::logic_error{"simulate: policy chose a full machine"};
      // Bill the decision at ground truth: how much worse was the
      // chosen machine than the best one actually available?
      const bool billed =
          cfg.regret_sample != 0 && decisions % cfg.regret_sample == 0;
      ++decisions;
      double chosen = 0.0, best = kInf;
      double lc_chosen = 0.0, lc_best = kInf;
      if (billed) {
        for (std::size_t v = open.next(0); v < cfg.machines;
             v = open.next(v + 1)) {
          const double d =
              placement_delta(truth, job.type, job.work, cview.view(v));
          if (v == m) chosen = d;
          best = std::min(best, d);
          // LC tail billing rides the same candidate scan: every billed
          // decision on an SLO-carrying trace pays for the true tail
          // violation it inflicts (a best-effort aggressor placed next
          // to a running LC job blows that job's p99, and this is the
          // decision that did it).
          if (any_lc) {
            const double lv = slo_violation(truth, job, cview.view(v));
            if (v == m) lc_chosen = lv;
            lc_best = std::min(lc_best, lv);
          }
        }
        res.mean_decision_regret += chosen - best;
        ++res.billed_decisions;
        class_regret[job.priority] += chosen - best;
        ++class_billed[job.priority];
        if (any_lc) {
          res.mean_lc_tail_regret += lc_chosen - lc_best;
          ++res.lc_billed_decisions;
          if (lc_chosen > 0.0) ++res.slo_violation_decisions;
        }
      }
      placements_ctr.add();
      if (traced) {
        obs::Args args;
        args.set("job", job.id)
            .set("policy", policy.name())
            .set("predicted_cost", policy.last_cost_delta());
        if (billed) args.set("true_cost", chosen).set("regret", chosen - best);
        if (billed && any_lc)
          args.set("lc_regret", lc_chosen - lc_best);
        args.set("queued_for", t - job.arrival);
        tr.instant_at(trace_pid, static_cast<int>(m),
                      "place " + type_label(job.type), t * kTraceUsPerUnit,
                      args.str());
      }
      // Report the full group outcome -- every member's true slowdown
      // in the machine's new resident group. The new job leads, so a
      // 2-resident group decomposes into the historical observe_pair
      // order; 3+-resident outcomes are what the deconvolving online
      // policy refines itself with.
      if (!machines[m].residents.empty()) {
        group_scratch.clear();
        group_scratch.push_back(job.type);
        for (const Resident& r : machines[m].residents)
          group_scratch.push_back(r.type);
        gslow_scratch.assign(group_scratch.size(), 1.0);
        if (group_scratch.size() == 2) {
          // Pair outcomes are raw 2-resident entries -- unclamped,
          // exactly the feedback the legacy loop reported.
          gslow_scratch[0] = truth.pair_entry(group_scratch[0], group_scratch[1]);
          gslow_scratch[1] = truth.pair_entry(group_scratch[1], group_scratch[0]);
        } else {
          for (std::size_t i = 0; i < group_scratch.size(); ++i)
            gslow_scratch[i] = truth.slowdown(
                group_scratch[i], harness::others_excluding(group_scratch, i));
        }
        policy.observe_group(group_scratch, gslow_scratch);
      }
      close_lane(m);  // the resident set is about to change
      materialize(machines[m]);
      machines[m].residents.push_back(
          {jid, job.type, job.work, 1.0, kInf, job.slo_p99});
      if (machines[m].residents.size() == cfg.slots) open.clear(m);
      reindex(m);
      ++running_count;
      ++stamp;
      JobOutcome& out = res.outcomes[jid];
      out.machine = m;
      if (!placed[jid]) {
        placed[jid] = 1;
        out.start = t;
      }
      res.log.events.push_back({TraceEvent::Kind::Place, t, job.id, job.type,
                                m, policy.last_cost_delta()});
      emit_queue_depth();
    }
  };

  while (next_arrival < trace.size() || running_count > 0 ||
         waiting_count > 0 || !requeue.empty()) {
    // Earliest completion from the heap (stale entries dropped);
    // ties resolve to the lowest machine then slot, deterministically.
    double t_done = kInf;
    std::size_t done_m = 0;
    while (!heap.empty()) {
      const HeapEntry& top = heap.top();
      if (top.version != machines[top.machine].version) {
        heap.pop();
        continue;
      }
      t_done = top.eta;
      done_m = top.machine;
      break;
    }
    const double t_arr =
        next_arrival < trace.size() ? trace[next_arrival].arrival : kInf;
    const double t_fault =
        next_fault < cfg.faults.size() ? cfg.faults[next_fault].time : kInf;
    const double t_req = requeue.empty() ? kInf : requeue.top().ready;
    if (t_done == kInf && t_arr == kInf && t_fault == kInf && t_req == kInf)
      throw std::logic_error{"simulate: stuck with waiting jobs"};

    // Completions first on ties: a freed slot should serve a job
    // arriving at the same instant, and a job finishing as its machine
    // dies finished. Then faults (a same-instant recovery frees slots
    // before requeues and arrivals queue), then requeues before
    // arrivals (an old job re-enters its lane ahead of a newcomer).
    if (t_done <= t_arr && t_done <= t_fault && t_done <= t_req) {
      heap.pop();
      t = t_done;
      ++stamp;
      MachineState& ms = machines[done_m];
      const std::size_t pos = ms.next_pos;
      const std::size_t jid = ms.residents[pos].job;
      close_lane(done_m);  // the resident set is about to change
      completions_ctr.add();
      materialize(ms);
      ms.residents.erase(ms.residents.begin() +
                         static_cast<std::ptrdiff_t>(pos));
      open.set(done_m);
      reindex(done_m);
      --running_count;
      JobOutcome& out = res.outcomes[jid];
      out.finish = t;
      res.log.events.push_back({TraceEvent::Kind::Finish, t, trace[jid].id,
                                out.type, done_m, out.corun_slowdown()});
    } else if (t_fault <= t_arr && t_fault <= t_req) {
      const FaultEvent& f = cfg.faults[next_fault];
      ++next_fault;
      t = f.time;
      ++stamp;
      if (f.kind == FaultEvent::Kind::Down) {
        MachineState& ms = machines[f.machine];
        close_lane(f.machine);  // the resident set is about to change
        materialize(ms);
        ++res.failures;
        failures_ctr.add();
        res.log.events.push_back(
            {TraceEvent::Kind::Fail, t, 0, 0, f.machine, 0.0});
        for (const Resident& r : ms.residents)
          kill_resident(r.job, r.remaining, f.machine);
        running_count -= ms.residents.size();
        ms.residents.clear();
        open.clear(f.machine);
        alive[f.machine] = 0;
        --alive_machines;
        reindex(f.machine);  // empty: just invalidates stale heap entries
        if (traced) down_since[f.machine] = t;
      } else {
        ++res.recoveries;
        recoveries_ctr.add();
        res.log.events.push_back(
            {TraceEvent::Kind::Recover, t, 0, 0, f.machine, 0.0});
        alive[f.machine] = 1;
        ++alive_machines;
        open.set(f.machine);
        if (traced) {
          tr.complete(trace_pid, static_cast<int>(f.machine), "DOWN",
                      down_since[f.machine] * kTraceUsPerUnit,
                      (t - down_since[f.machine]) * kTraceUsPerUnit,
                      obs::Args{}.set("machine", f.machine).str());
          lane_since[f.machine] = t;
        }
      }
    } else if (t_req <= t_arr) {
      const Requeue rq = requeue.top();
      requeue.pop();
      t = rq.ready;
      ++stamp;
      admit(rq.jid, /*check_admission=*/rq.deferred);
    } else {
      const JobSpec& job = trace[next_arrival];
      t = t_arr;
      ++stamp;
      res.log.events.push_back(
          {TraceEvent::Kind::Arrive, t, job.id, job.type, 0, 0.0});
      JobOutcome& out = res.outcomes[next_arrival];
      out.job = job.id;
      out.type = job.type;
      out.arrival = job.arrival;
      out.work = job.work;
      pending[next_arrival] = job.work;
      admit(next_arrival, /*check_admission=*/true);
      ++next_arrival;
    }
    drain_waiting();
  }

  res.class_stats.assign(max_priority + 1, ClassStats{});
  if (!res.outcomes.empty()) {
    for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
      const JobOutcome& o = res.outcomes[i];
      ClassStats& cs = res.class_stats[trace[i].priority];
      ++cs.jobs;
      cs.work_arrived += o.work;
      if (o.completed()) {
        ++cs.completed;
        ++res.completed_jobs;
        cs.work_completed += o.work;
        cs.mean_stretch += o.stretch();
        res.mean_stretch += o.stretch();
        res.mean_corun_slowdown += o.corun_slowdown();
        res.makespan = std::max(res.makespan, o.finish);
      }
      if (o.shed) ++cs.shed;
    }
    if (res.completed_jobs > 0) {
      res.mean_stretch /= static_cast<double>(res.completed_jobs);
      res.mean_corun_slowdown /= static_cast<double>(res.completed_jobs);
    }
    for (unsigned c = 0; c <= max_priority; ++c) {
      ClassStats& cs = res.class_stats[c];
      if (cs.completed > 0)
        cs.mean_stretch /= static_cast<double>(cs.completed);
      if (res.makespan > 0.0) cs.goodput = cs.work_completed / res.makespan;
      cs.billed = class_billed[c];
      if (cs.billed > 0)
        cs.mean_regret = class_regret[c] / static_cast<double>(cs.billed);
      reg.gauge("cluster.goodput.p" + std::to_string(c)).set(cs.goodput);
    }
  }
  if (res.billed_decisions > 0)
    res.mean_decision_regret /= static_cast<double>(res.billed_decisions);
  if (res.lc_billed_decisions > 0)
    res.mean_lc_tail_regret /= static_cast<double>(res.lc_billed_decisions);
  res.pairwise_fallbacks = truth.fallbacks() - fallbacks_before;
  return res;
}

// --- reference engine (the executable specification) ----------------

namespace {

struct Running {
  std::size_t job = 0;
  double remaining = 0.0;  ///< solo-time units still to execute
};

}  // namespace

ClusterResult simulate_reference(const ClusterConfig& cfg,
                                 harness::InterferenceTruth& truth,
                                 const std::vector<JobSpec>& trace,
                                 PlacementPolicy& policy) {
  validate(cfg, truth, trace, /*fleet_engine=*/false);
  const std::uint64_t fallbacks_before = truth.fallbacks();

  std::vector<std::vector<Running>> machines(cfg.machines);
  std::deque<std::size_t> waiting;  // arrived, not yet placed (FIFO)
  ClusterResult res;
  res.outcomes.resize(trace.size());
  double t = 0.0;
  std::size_t next_arrival = 0;
  std::size_t running_count = 0;

  obs::Trace& tr = obs::Trace::instance();
  const bool traced = tr.enabled();
  const int trace_pid = traced ? tr.next_pid() : 0;
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& placements_ctr = reg.counter("cluster.placements");
  obs::Counter& completions_ctr = reg.counter("cluster.completions");
  if (traced) {
    tr.name_process(trace_pid, "cluster " + policy.name() + " (" +
                                   std::to_string(cfg.machines) + "x" +
                                   std::to_string(cfg.slots) +
                                   ", simulated time, reference)");
    for (std::size_t m = 0; m < cfg.machines; ++m)
      tr.name_thread(trace_pid, static_cast<int>(m),
                     "machine " + std::to_string(m));
  }
  const auto type_label = [&](std::size_t type) -> std::string {
    if (type < cfg.type_names.size()) return cfg.type_names[type];
    std::string label{"t"};
    label += std::to_string(type);
    return label;
  };
  std::vector<double> lane_since(cfg.machines, 0.0);
  const auto close_lane = [&](std::size_t m) {
    if (!traced) return;
    if (!machines[m].empty() && t > lane_since[m]) {
      std::string label;
      for (const Running& r : machines[m]) {
        if (!label.empty()) label += '+';
        label += type_label(trace[r.job].type);
      }
      tr.complete(trace_pid, static_cast<int>(m), std::move(label),
                  lane_since[m] * kTraceUsPerUnit,
                  (t - lane_since[m]) * kTraceUsPerUnit,
                  obs::Args{}.set("residents", machines[m].size()).str());
    }
    lane_since[m] = t;
  };
  const auto emit_queue_depth = [&] {
    if (traced)
      tr.counter_at(trace_pid, "queue_depth", t * kTraceUsPerUnit,
                    static_cast<double>(waiting.size()));
  };

  // Current slowdown of one resident: the truth oracle's answer for
  // its co-resident group (measured when the truth holds the group,
  // additive pairwise composition otherwise).
  const auto slowdown_of = [&](std::size_t m, std::size_t slot) {
    std::vector<std::size_t> others;
    others.reserve(machines[m].size());
    for (std::size_t s = 0; s < machines[m].size(); ++s)
      if (s != slot) others.push_back(trace[machines[m][s].job].type);
    return truth.slowdown(trace[machines[m][slot].job].type, others);
  };

  const auto drain_waiting = [&] {
    while (!waiting.empty()) {
      std::vector<MachineView> views(cfg.machines);
      bool any_free = false;
      for (std::size_t m = 0; m < cfg.machines; ++m) {
        views[m].free_slots = cfg.slots - machines[m].size();
        any_free = any_free || views[m].free_slots > 0;
        for (const Running& r : machines[m])
          views[m].residents.push_back(
              {trace[r.job].type, std::max(0.0, r.remaining)});
      }
      if (!any_free) return;
      const std::size_t jid = waiting.front();
      waiting.pop_front();
      const JobSpec& job = trace[jid];
      const std::size_t m = policy.place(job, views);
      if (m >= cfg.machines || machines[m].size() >= cfg.slots)
        throw std::logic_error{"simulate: policy chose a full machine"};
      double chosen = 0.0, best = kInf;
      for (std::size_t v = 0; v < views.size(); ++v) {
        if (views[v].free_slots == 0) continue;
        const double d = placement_delta(truth, job.type, job.work, views[v]);
        if (v == m) chosen = d;
        best = std::min(best, d);
      }
      res.mean_decision_regret += chosen - best;
      placements_ctr.add();
      if (traced)
        tr.instant_at(trace_pid, static_cast<int>(m),
                      "place " + type_label(job.type), t * kTraceUsPerUnit,
                      obs::Args{}
                          .set("job", job.id)
                          .set("policy", policy.name())
                          .set("predicted_cost", policy.last_cost_delta())
                          .set("true_cost", chosen)
                          .set("regret", chosen - best)
                          .set("queued_for", t - job.arrival)
                          .str());
      if (!machines[m].empty()) {
        std::vector<std::size_t> group;
        group.reserve(machines[m].size() + 1);
        group.push_back(job.type);
        for (const Running& r : machines[m])
          group.push_back(trace[r.job].type);
        std::vector<double> slowdowns(group.size(), 1.0);
        if (group.size() == 2) {
          slowdowns[0] = truth.pair_entry(group[0], group[1]);
          slowdowns[1] = truth.pair_entry(group[1], group[0]);
        } else {
          for (std::size_t i = 0; i < group.size(); ++i)
            slowdowns[i] =
                truth.slowdown(group[i], harness::others_excluding(group, i));
        }
        policy.observe_group(group, slowdowns);
      }
      close_lane(m);  // the resident set is about to change
      machines[m].push_back({jid, job.work});
      ++running_count;
      JobOutcome& out = res.outcomes[jid];
      out.job = job.id;
      out.type = job.type;
      out.machine = m;
      out.arrival = job.arrival;
      out.start = t;
      out.work = job.work;
      res.log.events.push_back({TraceEvent::Kind::Place, t, job.id, job.type,
                                m, policy.last_cost_delta()});
      emit_queue_depth();
    }
  };

  while (next_arrival < trace.size() || running_count > 0 ||
         !waiting.empty()) {
    // Earliest completion under current (constant-between-events) rates;
    // ties resolve to the lowest machine then slot, deterministically.
    double t_done = kInf;
    std::size_t done_m = 0, done_s = 0;
    for (std::size_t m = 0; m < cfg.machines; ++m)
      for (std::size_t s = 0; s < machines[m].size(); ++s) {
        const double eta =
            t + std::max(0.0, machines[m][s].remaining) * slowdown_of(m, s);
        if (eta < t_done) {
          t_done = eta;
          done_m = m;
          done_s = s;
        }
      }
    const double t_arr =
        next_arrival < trace.size() ? trace[next_arrival].arrival : kInf;
    if (t_done == kInf && t_arr == kInf)
      throw std::logic_error{"simulate: stuck with waiting jobs"};

    // Completions first on ties: a freed slot should serve a job
    // arriving at the same instant.
    const double te = std::min(t_done, t_arr);
    for (std::size_t m = 0; m < cfg.machines; ++m)
      for (std::size_t s = 0; s < machines[m].size(); ++s)
        machines[m][s].remaining -= (te - t) / slowdown_of(m, s);
    t = te;

    if (t_done <= t_arr) {
      const std::size_t jid = machines[done_m][done_s].job;
      close_lane(done_m);  // the resident set is about to change
      completions_ctr.add();
      machines[done_m].erase(machines[done_m].begin() +
                             static_cast<std::ptrdiff_t>(done_s));
      --running_count;
      JobOutcome& out = res.outcomes[jid];
      out.finish = t;
      res.log.events.push_back({TraceEvent::Kind::Finish, t, trace[jid].id,
                                out.type, done_m, out.corun_slowdown()});
    } else {
      const JobSpec& job = trace[next_arrival];
      res.log.events.push_back(
          {TraceEvent::Kind::Arrive, t, job.id, job.type, 0, 0.0});
      waiting.push_back(next_arrival);
      ++next_arrival;
      emit_queue_depth();
    }
    drain_waiting();
  }

  if (!res.outcomes.empty()) {
    res.billed_decisions = res.outcomes.size();
    for (const JobOutcome& o : res.outcomes) {
      res.mean_stretch += o.stretch();
      res.mean_corun_slowdown += o.corun_slowdown();
      res.makespan = std::max(res.makespan, o.finish);
    }
    res.mean_stretch /= static_cast<double>(res.outcomes.size());
    res.mean_corun_slowdown /= static_cast<double>(res.outcomes.size());
    res.mean_decision_regret /= static_cast<double>(res.outcomes.size());
  }
  res.pairwise_fallbacks = truth.fallbacks() - fallbacks_before;
  return res;
}

}  // namespace coperf::cluster
