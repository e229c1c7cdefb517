#include "cluster/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>

#include "cluster/open_classes.hpp"

namespace coperf::cluster {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument{std::string{"simulate: "} + what};
}

// Every range check is written so that NaN fails it.
void validate(const ClusterConfig& cfg, const harness::InterferenceTruth& truth,
              const std::vector<JobSpec>& trace) {
  require(cfg.machines > 0 && cfg.machines <= UINT32_MAX,
          "need 1 to 2^32 - 1 machines");
  require(cfg.slots >= 2, "co-run machines need >= 2 slots");
  require(truth.size() > 0 && truth.size() <= 65536,
          "truth axis needs 1 to 65536 types");
  double prev = 0.0;
  for (const JobSpec& j : trace) {
    require(j.type < truth.size(), "job type outside the truth axis");
    require(std::isfinite(j.work) && j.work > 0.0,
            "job work must be finite and > 0");
    require(std::isfinite(j.arrival) && j.arrival >= prev,
            "arrivals must be finite and sorted");
    require(j.priority <= kMaxPriority, "job priority above kMaxPriority");
    require(std::isfinite(j.slo_p99) && j.slo_p99 >= 0.0,
            "job slo_p99 must be finite and >= 0");
    prev = j.arrival;
  }
  double prev_fault = 0.0;
  std::vector<char> down(cfg.machines, 0);
  for (const FaultEvent& f : cfg.faults) {
    require(f.machine < cfg.machines, "fault event machine out of range");
    require(std::isfinite(f.time) && f.time >= prev_fault,
            "fault events must be finite and sorted");
    const bool is_down = f.kind == FaultEvent::Kind::Down;
    require(is_down != static_cast<bool>(down[f.machine]),
            "fault events must alternate Down/Up per machine");
    down[f.machine] = is_down ? 1 : 0;
    prev_fault = f.time;
  }
  const RetryConfig& r = cfg.retry;
  require(std::isfinite(r.backoff) && r.backoff >= 0.0 &&
              std::isfinite(r.backoff_factor) && r.backoff_factor >= 1.0,
          "retry backoff must be finite and >= 0 with factor >= 1");
  require(r.checkpoint >= 0.0 && r.checkpoint <= 1.0,
          "retry checkpoint must be in [0, 1]");
  const AdmissionConfig& a = cfg.admission;
  require(a.util_limit >= 0.0 && a.util_limit <= 1.0,
          "admission util_limit must be in [0, 1]");
  require(std::isfinite(a.defer_delay) && a.defer_delay >= 0.0,
          "admission defer_delay must be finite and >= 0");
}

// --- indexed fleet engine -------------------------------------------

/// One running job in the indexed engine. `remaining` is materialized
/// as of the owning machine's `upd` time; `slowdown` and `eta` are
/// valid for the machine's current resident multiset.
struct Resident {
  std::size_t job = 0;         ///< trace index
  std::uint32_t type = 0;
  std::uint32_t priority = 0;  ///< JobSpec::priority, for victim search
  double remaining = 0.0;
  double slowdown = 1.0;
  double eta = kInf;           ///< absolute completion estimate
  double slo = 0.0;            ///< JobSpec::slo_p99 (0 = best-effort)
};
static_assert(sizeof(Resident) == 48);

struct MachineState {
  std::vector<Resident> residents;
  double upd = 0.0;        ///< time `remaining` values were materialized
  double next_eta = kInf;  ///< min resident eta (ties: lowest slot)
  std::size_t next_pos = 0;
};

/// A set of machines as a bitset: O(1) toggle, O(1) count, word-scan
/// enumeration, and rank select through a Fenwick tree over the
/// per-word popcounts. The engine keeps one of machines with >= 1 free
/// slot (the index behind ClusterView::kth_open) and, with migration
/// on, one per priority class of machines holding a resident of that
/// class (the victim index behind Engine::preempt).
class OpenSet {
 public:
  explicit OpenSet(std::size_t n)
      : n_(n),
        words_((n + 63) / 64, 0),
        tree_(std::bit_ceil(words_.size()) + 1, 0) {}

  void set(std::size_t i) {
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t b = 1ull << (i & 63);
    if (!(w & b)) {
      w |= b;
      ++count_;
      for (std::size_t f = (i >> 6) + 1; f < tree_.size(); f += f & (~f + 1))
        ++tree_[f];
    }
  }
  void clear(std::size_t i) {
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t b = 1ull << (i & 63);
    if (w & b) {
      w &= ~b;
      --count_;
      for (std::size_t f = (i >> 6) + 1; f < tree_.size(); f += f & (~f + 1))
        --tree_[f];
    }
  }
  std::size_t count() const { return count_; }

  /// First member with index >= from; n (== machines) if none.
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

  /// The k-th (0-based) member in ascending order, k < count(): a
  /// branch-free Fenwick descent to the word holding it, then that
  /// word's lower members cleared one by one. O(log words), plus at
  /// most 63 steps inside the word.
  std::size_t select(std::size_t k) const {
    std::size_t wi = 0;  // words wholly before the k-th member
    for (std::size_t step = (tree_.size() - 1) / 2; step != 0; step >>= 1) {
      // Branch-free: all ones when the step's words lie wholly before.
      const std::size_t c = tree_[wi + step];
      const std::size_t take = ~std::size_t{0} * (c <= k);
      wi += step & take;
      k -= c & take;
    }
    std::uint64_t w = words_[wi];
    for (; k != 0; --k) w &= w - 1;
    return (wi << 6) + static_cast<std::size_t>(std::countr_zero(w));
  }

 private:
  std::size_t n_;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
  /// Fenwick tree over the word popcounts, 1-based and padded to a
  /// power of two: tree_[f] counts the members of words
  /// [f - lowbit(f), f).
  std::vector<std::size_t> tree_;
};

/// The policies' window into the engine. view() materializes into one
/// scratch MachineView, valid until the next view() call: a decision
/// views each candidate once. kth_open selects any k in O(log words)
/// and serves ascending scans (the policies' and the regret bill's) in
/// O(1) amortized per step. open_classes() hands out the engine's class
/// index, filling it from the open set on the first call; from then on
/// the engine keeps it current.
class EngineView final : public ClusterView {
 public:
  EngineView(const std::vector<MachineState>& ms, const OpenSet& open,
             OpenClasses& classes, std::size_t slots, const double& t,
             const std::uint64_t& stamp)
      : ms_(ms),
        open_(open),
        classes_(classes),
        slots_(slots),
        t_(t),
        stamp_(stamp) {
    scratch_.residents.reserve(slots);
  }

  std::size_t machines() const override { return ms_.size(); }
  std::size_t open_count() const override { return open_.count(); }

  std::size_t kth_open(std::size_t k) const override {
    if (k >= open_.count())
      throw std::out_of_range{"ClusterView::kth_open: index past open set"};
    const bool warm = scan_stamp_ == stamp_;
    if (warm && k == last_k_) return last_m_;
    last_m_ = warm && k == last_k_ + 1 ? open_.next(last_m_ + 1)
                                       : open_.select(k);
    scan_stamp_ = stamp_;
    last_k_ = k;
    return last_m_;
  }

  std::size_t free_slots(std::size_t m) const override {
    return slots_ - ms_[m].residents.size();
  }

  const MachineView& view(std::size_t m) const override {
    const MachineState& s = ms_[m];
    scratch_.free_slots = slots_ - s.residents.size();
    scratch_.residents.clear();
    for (const Resident& r : s.residents)
      scratch_.residents.push_back(
          {r.type, std::max(0.0, r.remaining - (t_ - s.upd) / r.slowdown),
           r.slo});
    return scratch_;
  }

  const OpenClasses* open_classes() const override {
    if (!classes_.enabled()) {
      classes_.enable();
      for (std::size_t m = open_.next(0); m < ms_.size(); m = open_.next(m + 1))
        classes_.insert(m, ms_[m].residents);
    }
    return &classes_;
  }

 private:
  const std::vector<MachineState>& ms_;
  const OpenSet& open_;
  OpenClasses& classes_;
  std::size_t slots_;
  const double& t_;
  const std::uint64_t& stamp_;
  mutable MachineView scratch_;
  mutable std::uint64_t scan_stamp_ = 0;
  mutable std::size_t last_k_ = 0;
  mutable std::size_t last_m_ = 0;
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

/// The indexed event loop behind simulate(): run() merges the event
/// sources, and every change to a machine's resident set goes through
/// edit() ... commit().
class Engine {
 public:
  Engine(const ClusterConfig& cfg, harness::InterferenceTruth& truth,
         const std::vector<JobSpec>& trace, PlacementPolicy& policy)
      : cfg_(cfg),
        truth_(truth),
        trace_(trace),
        policy_(policy),
        fallbacks_before_(truth.fallbacks()),
        machines_(cfg.machines),
        open_(cfg.machines),
        alive_(cfg.machines, 1),
        alive_machines_(cfg.machines),
        pending_(trace.size(), 0.0),
        heap_pos_(cfg.machines, IndexedHeap::kAbsent),
        classes_(cfg.machines, cfg.slots, t_),
        view_{machines_, open_, classes_, cfg.slots, t_, stamp_} {
    for (std::size_t m = 0; m < cfg.machines; ++m) open_.set(m);
    unsigned max_priority = 0;
    for (const JobSpec& j : trace) {
      max_priority = std::max(max_priority, j.priority);
      res_.lc_jobs += j.latency_critical();
    }
    waiting_.resize(max_priority + 1);
    if (cfg.migration.preempt)
      holders_.assign(max_priority + 1, OpenSet{cfg.machines});
    res_.class_stats.resize(max_priority + 1);
    res_.outcomes.resize(trace.size());
    // Every job logs Arrive, Place and Finish, and is billed at most once
    // per placement; the spare room covers faults, evictions, deferrals
    // and re-placements. Growing by doubling instead leaves freed blocks
    // that the allocator keeps, so peak RSS would depend on how many
    // simulations ran before. The bills get the log's room per job: at
    // fleet scale both blocks then exceed glibc's largest dynamic mmap
    // threshold (32 MiB), so each run maps its own and unmaps it. A
    // smaller bills block is recycled through the heap from the second
    // run on, and a small allocation that splits it between runs
    // strands its touched pages (+9 MB at 500k jobs billed per
    // decision).
    res_.log.events.reserve(4 * trace.size());
    if (cfg.regret_sample != 0)
      res_.bills.reserve(4 * trace.size() / cfg.regret_sample + 1);
  }
  Engine(const Engine&) = delete;  // view_ refers into this object

  ClusterResult run() {
    while (next_arrival_ < trace_.size() || running_ > 0 ||
           waiting_count_ > 0 || !requeues_.empty()) {
      const double t_done = next_completion();
      const double t_arr =
          next_arrival_ < trace_.size() ? trace_[next_arrival_].arrival : kInf;
      const double t_fault = next_fault_ < cfg_.faults.size()
                                 ? cfg_.faults[next_fault_].time
                                 : kInf;
      const double t_req = requeues_.empty() ? kInf : requeues_.top().ready;
      if (t_done == kInf && t_arr == kInf && t_fault == kInf && t_req == kInf)
        throw std::logic_error{"simulate: stuck with waiting jobs"};
      t_ = std::min({t_done, t_arr, t_fault, t_req});
      ++stamp_;

      // Completions first on ties: a freed slot should serve a job
      // arriving at the same instant, and a job finishing as its
      // machine dies finished. Then faults (a same-instant recovery
      // frees slots before requeues and arrivals queue), then requeues
      // before arrivals (an old job re-enters its lane ahead of a
      // newcomer).
      if (t_done <= t_arr && t_done <= t_fault && t_done <= t_req)
        complete();
      else if (t_fault <= t_arr && t_fault <= t_req)
        fault();
      else if (t_req <= t_arr)
        reenter();
      else
        arrive();
      drain();
    }
    summarize();
    return std::move(res_);
  }

 private:
  // --- event sources ------------------------------------------------

  /// Earliest completion in the fleet; ties resolve to the lowest
  /// machine then slot, deterministically.
  double next_completion() const {
    return heap_.empty() ? kInf : heap_.top().key;
  }

  void complete() {
    const std::size_t m = heap_.top().id;
    const std::size_t jid = remove_resident(m, machines_[m].next_pos).job;
    JobOutcome& out = res_.outcomes[jid];
    out.finish = t_;
    log(TraceEvent::Kind::Finish, trace_[jid], m, out.corun_slowdown());
  }

  void fault() {
    const FaultEvent& f = cfg_.faults[next_fault_++];
    if (f.kind == FaultEvent::Kind::Up) {
      ++res_.recoveries;
      log(TraceEvent::Kind::Recover, JobSpec{}, f.machine, 0.0);
      alive_[f.machine] = 1;
      ++alive_machines_;
      open_.set(f.machine);
      if (classes_.enabled())
        classes_.insert(f.machine, machines_[f.machine].residents);
      return;
    }
    ++res_.failures;
    log(TraceEvent::Kind::Fail, JobSpec{}, f.machine, 0.0);
    MachineState& ms = edit(f.machine);
    for (const Resident& r : ms.residents) kill(r.job, r.remaining, f.machine);
    ms.residents.clear();
    alive_[f.machine] = 0;
    --alive_machines_;
    commit(f.machine);
  }

  void reenter() {
    const Requeue rq = requeues_.top();
    requeues_.pop();
    admit(rq.jid, /*check_admission=*/rq.deferred);
  }

  void arrive() {
    const std::size_t jid = next_arrival_++;
    const JobSpec& job = trace_[jid];
    log(TraceEvent::Kind::Arrive, job, 0, 0.0);
    JobOutcome& out = res_.outcomes[jid];
    out.job = job.id;
    out.type = job.type;
    out.arrival = job.arrival;
    out.work = job.work;
    pending_[jid] = job.work;
    admit(jid, /*check_admission=*/true);
  }

  /// Places waiting jobs, highest class first, while a slot is open --
  /// or, with migration on, while a lower-class resident can be evicted.
  void drain() {
    while (waiting_count_ > 0) {
      if (open_.count() == 0) {
        if (!cfg_.migration.preempt || !preempt()) break;
        continue;
      }
      std::deque<std::size_t>& lane = waiting_[top_lane()];
      const std::size_t jid = lane.front();
      lane.pop_front();
      --waiting_count_;
      place(jid);
    }
  }

  // --- resident sets ------------------------------------------------

  /// Opens a change to machine m's resident set at time t: brings its
  /// remaining work up to t, and takes its residents out of the running
  /// count, the victim index and the class index until commit().
  MachineState& edit(std::size_t m) {
    MachineState& ms = machines_[m];
    materialize(ms);
    running_ -= ms.residents.size();
    if (cfg_.migration.preempt)
      for (const Resident& r : ms.residents) holders_[r.priority].clear(m);
    if (classes_.enabled()) classes_.erase(m);
    return ms;
  }

  /// Closes the change: open-set and victim-index membership, fresh
  /// rates and ETAs, the machine's completion entry, its class while it
  /// is open, and a new view stamp.
  void commit(std::size_t m) {
    const MachineState& ms = machines_[m];
    const bool open = alive_[m] && ms.residents.size() < cfg_.slots;
    if (open)
      open_.set(m);
    else
      open_.clear(m);
    if (cfg_.migration.preempt)
      for (const Resident& r : ms.residents) holders_[r.priority].set(m);
    reindex(m);
    if (open && classes_.enabled()) classes_.insert(m, ms.residents);
    running_ += ms.residents.size();
    ++stamp_;
  }

  void add_resident(std::size_t m, const Resident& r) {
    edit(m).residents.push_back(r);
    commit(m);
  }

  /// Takes the resident in slot `pos` off machine m; returns it with
  /// its remaining work materialized to t.
  Resident remove_resident(std::size_t m, std::size_t pos) {
    std::vector<Resident>& residents = edit(m).residents;
    const Resident r = residents[pos];
    residents.erase(residents.begin() + static_cast<std::ptrdiff_t>(pos));
    commit(m);
    return r;
  }

  /// Brings machine m's remaining-work accounting up to t: one
  /// decrement per resident per constant-rate interval, clamped at zero
  /// so completion arithmetic never leaves a negative residue.
  void materialize(MachineState& ms) {
    if (ms.upd == t_) return;
    for (Resident& r : ms.residents)
      r.remaining = std::max(0.0, r.remaining - (t_ - ms.upd) / r.slowdown);
    ms.upd = t_;
  }

  /// Re-derives machine m's cached rates after a resident-set change at
  /// time t (remaining already materialized to t): one truth query per
  /// resident, fresh ETAs, and the machine's completion entry re-keyed
  /// in place (dropped once the machine is empty).
  void reindex(std::size_t m) {
    MachineState& ms = machines_[m];
    ms.next_eta = kInf;
    ms.next_pos = 0;
    for (std::size_t i = 0; i < ms.residents.size(); ++i) {
      others_.clear();
      for (std::size_t j = 0; j < ms.residents.size(); ++j)
        if (j != i) others_.push_back(ms.residents[j].type);
      ms.residents[i].slowdown = truth_.slowdown(ms.residents[i].type, others_);
    }
    for (std::size_t i = 0; i < ms.residents.size(); ++i) {
      Resident& r = ms.residents[i];
      r.eta = t_ + std::max(0.0, r.remaining) * r.slowdown;
      if (r.eta < ms.next_eta) {
        ms.next_eta = r.eta;
        ms.next_pos = i;
      }
    }
    const auto id = static_cast<std::uint32_t>(m);
    if (ms.residents.empty())
      heap_.erase(id, heap_pos_);
    else
      heap_.update(id, ms.next_eta, heap_pos_);
  }

  // --- protection: retry, migration, admission ----------------------

  /// The work-loss model: a resident killed or evicted at t with
  /// `remaining` solo work left in its attempt keeps the checkpointed
  /// share of what the attempt executed.
  void lose_work(std::size_t jid, double remaining) {
    const double executed = pending_[jid] - remaining;
    pending_[jid] =
        std::max(0.0, pending_[jid] - cfg_.retry.checkpoint * executed);
  }

  /// A failure kill: work loss, then a requeue with exponential backoff
  /// -- or a shed once the job's retry budget is spent.
  void kill(std::size_t jid, double remaining, std::size_t m) {
    lose_work(jid, remaining);
    JobOutcome& out = res_.outcomes[jid];
    ++res_.fault_kills;
    if (out.retries >= cfg_.retry.max_retries) {
      shed(jid);
      return;
    }
    log(TraceEvent::Kind::Evict, trace_[jid], m, pending_[jid]);
    requeues_.push({t_ + cfg_.retry.delay(++out.retries), jid,
                    /*deferred=*/false});
  }

  /// Queues a job into its priority lane, re-checking admission control
  /// when asked (fresh arrivals and deferred re-entries; failure
  /// retries were already admitted and skip the check).
  void admit(std::size_t jid, bool check_admission) {
    const JobSpec& job = trace_[jid];
    const AdmissionConfig& adm = cfg_.admission;
    if (check_admission && adm.enabled() && job.priority < adm.shed_below &&
        overloaded()) {
      JobOutcome& out = res_.outcomes[jid];
      if (adm.defer_delay > 0.0 && out.defers < adm.max_defers) {
        ++out.defers;
        const double until = t_ + adm.defer_delay;
        log(TraceEvent::Kind::Defer, job, 0, until);
        requeues_.push({until, jid, /*deferred=*/true});
      } else {
        shed(jid);
      }
      return;
    }
    enqueue(jid);
  }

  /// Admission-control overload: queue depth at the limit, or busy
  /// share of the *alive* slot pool at the utilization limit. An
  /// all-down fleet counts as overloaded.
  bool overloaded() const {
    const AdmissionConfig& adm = cfg_.admission;
    if (adm.queue_limit > 0 && waiting_count_ >= adm.queue_limit) return true;
    if (adm.util_limit > 0.0) {
      const double cap = static_cast<double>(alive_machines_ * cfg_.slots);
      if (cap <= 0.0) return true;
      if (static_cast<double>(running_) >= adm.util_limit * cap) return true;
    }
    return false;
  }

  /// Drops a job for good: its outstanding solo work is the admission
  /// delta of never running it, billed into shed_work / class stats.
  void shed(std::size_t jid) {
    res_.outcomes[jid].shed = true;
    ++res_.shed_jobs;
    res_.shed_work += pending_[jid];
    log(TraceEvent::Kind::Shed, trace_[jid], 0, pending_[jid]);
  }

  /// Preemptive migration: the highest waiting class claims a slot from
  /// a strictly lower-priority resident (lowest class first, then the
  /// lowest machine and slot), which pays the work-loss penalty and
  /// requeues at once at the back of its lane -- no backoff. Returns
  /// false, in O(classes), when nothing is strictly lower.
  bool preempt() {
    const std::size_t top = top_lane();
    std::size_t c = 0;
    while (c < top && holders_[c].count() == 0) ++c;
    if (c == top) return false;
    const std::size_t vm = holders_[c].next(0);
    const std::vector<Resident>& slots = machines_[vm].residents;
    std::size_t vs = 0;
    while (slots[vs].priority != c) ++vs;
    const Resident victim = remove_resident(vm, vs);
    lose_work(victim.job, victim.remaining);
    ++res_.migrations;
    ++res_.outcomes[victim.job].evictions;
    log(TraceEvent::Kind::Evict, trace_[victim.job], vm, pending_[victim.job]);
    enqueue(victim.job);
    return true;
  }

  /// The highest priority lane holding a waiting job (waiting_count_ > 0).
  std::size_t top_lane() const {
    std::size_t c = waiting_.size() - 1;
    while (waiting_[c].empty()) --c;
    return c;
  }

  void enqueue(std::size_t jid) {
    waiting_[trace_[jid].priority].push_back(jid);
    ++waiting_count_;
  }

  // --- decisions and billing ----------------------------------------

  void place(std::size_t jid) {
    // The job demands only its outstanding work: identical to the
    // original spec until a kill or eviction shrinks it.
    JobSpec job = trace_[jid];
    job.work = pending_[jid];
    const std::size_t m = policy_.place(job, view_);
    if (m >= cfg_.machines || machines_[m].residents.size() >= cfg_.slots)
      throw std::logic_error{"simulate: policy chose a full machine"};
    bill(job, m);
    observe(m, job.type);
    add_resident(m, {jid, static_cast<std::uint32_t>(job.type), job.priority,
                     job.work, 1.0, kInf, job.slo_p99});
    JobOutcome& out = res_.outcomes[jid];
    out.machine = m;
    // A job places again only after a kill or an eviction.
    if (out.retries == 0 && out.evictions == 0) out.start = t_;
    log(TraceEvent::Kind::Place, job, m, policy_.last_cost_delta());
  }

  /// Bills a decision at ground truth: how much worse was the chosen
  /// machine than the best open one? On an SLO-carrying trace the same
  /// scan prices the true tail violation the decision inflicts (a
  /// best-effort job placed next to a running LC job blows its p99).
  /// Without one, and once a policy has asked for the class index, the
  /// prices come through the index; the bill never turns it on itself.
  void bill(const JobSpec& job, std::size_t m) {
    if (cfg_.regret_sample == 0 || decisions_++ % cfg_.regret_sample != 0)
      return;
    // With no SLO-carrying job in the trace the LC billing is skipped
    // entirely -- no tail_slowdown queries are issued, so batch-only
    // runs are byte-identical to the pre-SLO engine.
    const bool lc = res_.lc_jobs > 0;
    const OpenClasses* classes = classes_.enabled() ? &classes_ : nullptr;
    const TruthPrices p =
        truth_prices(truth_, job, view_, classes, m, lc, "simulate");
    DecisionBill b;
    b.chosen = p.chosen;
    b.regret = p.chosen - p.least;
    res_.mean_decision_regret += b.regret;
    ++res_.billed_decisions;
    res_.class_stats[job.priority].mean_regret += b.regret;
    ++res_.class_stats[job.priority].billed;
    if (lc) {
      b.lc_regret = p.lc_chosen - p.lc_least;
      res_.mean_lc_tail_regret += b.lc_regret;
      if (p.lc_chosen > 0.0) ++res_.slo_violation_decisions;
    }
    res_.bills.push_back(b);
  }

  /// Reports every member's true slowdown in machine m's new resident
  /// group to the policy. The new job leads, so a 2-resident group
  /// decomposes into the historical observe_pair order.
  void observe(std::size_t m, std::size_t type) {
    const std::vector<Resident>& residents = machines_[m].residents;
    if (residents.empty()) return;
    group_.clear();
    group_.push_back(type);
    for (const Resident& r : residents) group_.push_back(r.type);
    gslow_.assign(group_.size(), 1.0);
    if (group_.size() == 2) {
      // Pair outcomes are raw 2-resident entries -- unclamped, exactly
      // the feedback the legacy loop reported.
      gslow_[0] = truth_.pair_entry(group_[0], group_[1]);
      gslow_[1] = truth_.pair_entry(group_[1], group_[0]);
    } else {
      for (std::size_t i = 0; i < group_.size(); ++i)
        gslow_[i] =
            truth_.slowdown(group_[i], harness::others_excluding(group_, i));
    }
    policy_.observe_group(group_, gslow_);
  }

  /// Appends one audit-log line at the current time.
  void log(TraceEvent::Kind kind, const JobSpec& job, std::size_t m,
           double value) {
    res_.log.events.push_back({kind, static_cast<std::uint16_t>(job.type),
                               static_cast<std::uint32_t>(m), t_, job.id,
                               value});
  }

  void summarize() {
    ClusterResult& res = res_;
    if (!res.outcomes.empty()) {
      for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
        const JobOutcome& o = res.outcomes[i];
        ClassStats& cs = res.class_stats[trace_[i].priority];
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
      for (unsigned c = 0; c < res.class_stats.size(); ++c) {
        ClassStats& cs = res.class_stats[c];
        if (cs.completed > 0)
          cs.mean_stretch /= static_cast<double>(cs.completed);
        if (res.makespan > 0.0) cs.goodput = cs.work_completed / res.makespan;
        if (cs.billed > 0) cs.mean_regret /= static_cast<double>(cs.billed);
      }
    }
    if (res.billed_decisions > 0) {
      res.mean_decision_regret /= static_cast<double>(res.billed_decisions);
      res.mean_lc_tail_regret /= static_cast<double>(res.billed_decisions);
    }
    res.pairwise_fallbacks = truth_.fallbacks() - fallbacks_before_;
  }

  const ClusterConfig& cfg_;
  harness::InterferenceTruth& truth_;
  const std::vector<JobSpec>& trace_;
  PlacementPolicy& policy_;
  const std::uint64_t fallbacks_before_;

  std::vector<MachineState> machines_;
  OpenSet open_;
  /// The victim index, kept only with migration on: per priority class,
  /// the machines holding a resident of that class. A class is empty
  /// exactly when its set is.
  std::vector<OpenSet> holders_;
  std::vector<char> alive_;
  std::size_t alive_machines_;
  std::size_t running_ = 0;
  /// One FIFO lane per priority class; higher classes drain first.
  std::vector<std::deque<std::size_t>> waiting_;
  std::size_t waiting_count_ = 0;
  /// Solo work a job still owes at its next placement: its full demand
  /// until a failure kill or eviction applies the work-loss model.
  std::vector<double> pending_;
  /// The completion index: one entry per busy machine, keyed by its
  /// next_eta (ties to the lowest machine, deterministically), re-keyed
  /// in place through heap_pos_ when its resident set changes.
  IndexedHeap heap_;
  std::vector<std::uint32_t> heap_pos_;
  std::priority_queue<Requeue, std::vector<Requeue>, RequeueLater> requeues_;
  std::size_t next_arrival_ = 0;
  std::size_t next_fault_ = 0;
  double t_ = 0.0;
  std::uint64_t stamp_ = 1;
  /// The open machines by resident types (ClusterView::open_classes()),
  /// kept only once a policy has asked for it.
  OpenClasses classes_;
  EngineView view_;

  std::size_t decisions_ = 0;  ///< placements so far, billed or not
  ClusterResult res_;

  /// Scratch buffers reused across all truth queries and observations.
  std::vector<std::size_t> others_, group_;
  std::vector<double> gslow_;
};

}  // namespace

ClusterResult simulate(const ClusterConfig& cfg,
                       harness::InterferenceTruth& truth,
                       const std::vector<JobSpec>& trace,
                       PlacementPolicy& policy) {
  validate(cfg, truth, trace);
  ClusterResult res = Engine{cfg, truth, trace, policy}.run();
  render_timeline(cfg, trace, policy.name(), res);
  return res;
}

}  // namespace coperf::cluster
