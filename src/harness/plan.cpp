#include "harness/plan.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>

#include "harness/runcache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "wl/registry.hpp"

namespace coperf::harness {

namespace {

/// Trace-span label of one trial: members joined with '+', background
/// (restart-until-done) members marked with '*'.
std::string trial_label(const GroupSpec& spec) {
  std::string label;
  for (const MemberSpec& m : spec.members) {
    if (!label.empty()) label += '+';
    label += m.workload;
    if (m.restart_until_done) label += '*';
  }
  return label;
}

RunOptions with_seed(RunOptions o, std::uint64_t seed) {
  o.seed = seed;
  return o;
}

GroupSpec pair_group(const std::string& fg, const std::string& bg,
                     const RunOptions& base) {
  return GroupSpec::pair(fg, bg, base.threads, base.bg_threads);
}

/// The matrix axis: the subset verbatim (names validated), or every
/// registered application in paper order.
std::vector<std::string> matrix_axis(const MatrixSpec& spec) {
  if (!spec.subset.empty()) {
    for (const auto& w : spec.subset) (void)wl::Registry::instance().at(w);
    return spec.subset;
  }
  std::vector<std::string> axis;
  for (const auto* w : wl::Registry::instance().applications())
    axis.push_back(w->name);
  return axis;
}

RunOptions prefetch_options(const RunOptions& base, bool on) {
  RunOptions o = base;
  o.machine.prefetch =
      on ? sim::PrefetchMask::all_on() : sim::PrefetchMask::all_off();
  return o;
}

}  // namespace

// --- ExperimentPlan --------------------------------------------------

ExperimentPlan::ExperimentPlan(RunOptions base) : base_(base) {
  base_.machine.validate();
}

void ExperimentPlan::add_trial(GroupSpec group, const RunOptions& opt) {
  // Fail at add time, not from a worker mid-execute: an unknown name
  // must not discard a half-finished ResultSet.
  for (const MemberSpec& m : group.members)
    (void)wl::Registry::instance().at(m.workload);
  std::string key = RunCache::group_key(group, opt);
  if (index_.count(key) != 0) return;  // structural dedup
  index_.emplace(key, trials_.size());
  trials_.push_back(Trial{std::move(group), opt, std::move(key)});
}

ExperimentPlan& ExperimentPlan::add_solo(const SoloSpec& spec) {
  return add_group(GroupSpec::solo(spec.workload, spec.threads), spec.reps);
}

ExperimentPlan& ExperimentPlan::add_group(const GroupSpec& spec,
                                          unsigned reps) {
  if (reps == 0) throw std::invalid_argument{"add_group: reps must be >= 1"};
  for (unsigned r = 0; r < reps; ++r)
    add_trial(spec, with_seed(base_, base_.seed + r));
  return *this;
}

ExperimentPlan& ExperimentPlan::add_scalability(const SweepSpec& spec) {
  if (spec.max_threads == 0)
    throw std::invalid_argument{"add_scalability: max_threads must be >= 1"};
  for (unsigned t = 1; t <= spec.max_threads; ++t)
    add_trial(GroupSpec::solo(spec.workload, t), base_);
  return *this;
}

ExperimentPlan& ExperimentPlan::add_prefetch(const PrefetchSpec& spec) {
  add_trial(GroupSpec::solo(spec.workload, spec.threads),
            prefetch_options(base_, /*on=*/true));
  add_trial(GroupSpec::solo(spec.workload, spec.threads),
            prefetch_options(base_, /*on=*/false));
  return *this;
}

ExperimentPlan& ExperimentPlan::add_matrix(const MatrixSpec& spec) {
  const std::vector<std::string> axis = matrix_axis(spec);
  if (axis.empty()) throw std::logic_error{"add_matrix: no workloads"};
  if (!spec.solo_cycles.empty() && spec.solo_cycles.size() != axis.size())
    throw std::invalid_argument{
        "add_matrix: solo_cycles size does not match the workload count"};
  if (spec.solo_cycles.empty())
    for (const auto& w : axis) add_solo(SoloSpec{w, base_.threads, spec.reps});
  for (const auto& fg : axis)
    for (const auto& bg : axis)
      add_group(pair_group(fg, bg, base_), spec.reps);
  return *this;
}

std::size_t ExperimentPlan::residue_count() const {
  const RunCache& cache = RunCache::instance();
  std::size_t residue = 0;
  for (const Trial& t : trials_)
    if (!cache.contains(t.key)) ++residue;
  return residue;
}

ResultSet ExperimentPlan::execute(unsigned host_threads,
                                  Progress progress) const {
  std::vector<GroupResult> results(trials_.size());
  std::mutex progress_mu;
  std::size_t done = 0;
  // Observability: a trial span per pool-worker lane, an in-flight
  // counter track, and registry counters/histograms. All of it is
  // behind branch-only enabled checks; nothing here touches simulation
  // state (the RunCache hit/miss split is counted inside run_group's
  // cache probe).
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& trials_done = reg.counter("plan.trials_done");
  obs::Histogram& trial_us = reg.histogram("plan.trial_us");
  obs::Gauge& inflight_gauge = reg.gauge("plan.inflight");
  obs::Trace& tr = obs::Trace::instance();
  std::atomic<int> inflight{0};
  // Core-saturation accounting: total busy lane-time vs. plan wall
  // time. utilization == busy / (wall * workers); 1.0 means every pool
  // worker simulated for the whole build, lower means lanes idled on
  // stragglers or queue gaps.
  std::atomic<std::uint64_t> busy_us{0};
  const double plan_t0 = obs::wall_us();
  {
    obs::Trace::Span plan_span{
        "plan.execute",
        obs::Args{}
            .set("trials", trials_.size())
            .set("residue", tr.enabled() ? residue_count() : std::size_t{0})
            .str()};
    util::parallel_for(
        trials_.size(), host_threads,
        [&](std::size_t i) {
          const bool traced = tr.enabled();
          const bool timed = traced || obs::metrics_enabled();
          if (timed) {
            const int now_in = inflight.fetch_add(1) + 1;
            inflight_gauge.set(now_in);
            if (traced) tr.counter("plan.inflight", now_in);
          }
          const double t0 = timed ? obs::wall_us() : 0.0;
          try {
            results[i] = run_group(trials_[i].group, trials_[i].opt);
          } catch (...) {
            // Keep the in-flight accounting honest when a trial throws;
            // the pool delivers the first error to the caller.
            if (timed) {
              const int now_in = inflight.fetch_sub(1) - 1;
              inflight_gauge.set(now_in);
              if (traced) tr.counter("plan.inflight", now_in);
            }
            throw;
          }
          if (timed) {
            const double dur = obs::wall_us() - t0;
            trial_us.record(static_cast<std::uint64_t>(dur));
            busy_us.fetch_add(static_cast<std::uint64_t>(dur),
                              std::memory_order_relaxed);
            trials_done.add();
            if (traced) {
              tr.complete_host(
                  trial_label(trials_[i].group), t0, dur,
                  obs::Args{}.set("seed", trials_[i].opt.seed).str());
              tr.counter("plan.inflight", inflight.load() - 1);
            }
            inflight.fetch_sub(1);
            inflight_gauge.set(inflight.load());
          }
          if (progress) {
            std::lock_guard lock{progress_mu};
            progress(++done, trials_.size(), trials_[i]);
          }
        });
  }
  // The pool spawns lazily inside parallel_for: sample it afterwards.
  reg.gauge("pool.workers").set(util::pool_size());
  // The caller is a lane too, so this is NOT pool_size(), which is 0
  // on the serial path and may exceed this job's cap after larger runs.
  const unsigned lanes = util::lane_count(trials_.size(), host_threads);
  reg.gauge("plan.lanes").set(lanes);
  const double plan_wall = obs::wall_us() - plan_t0;
  if (plan_wall > 0.0)
    reg.gauge("plan.utilization")
        .set(static_cast<double>(busy_us.load(std::memory_order_relaxed)) /
             (plan_wall * static_cast<double>(lanes)));
  ResultSet rs;
  rs.base_ = base_;
  rs.results_.reserve(trials_.size());
  for (std::size_t i = 0; i < trials_.size(); ++i)
    rs.results_.emplace(trials_[i].key, std::move(results[i]));
  return rs;
}

// --- ResultSet -------------------------------------------------------

const GroupResult& ResultSet::at(const std::string& key) const {
  const auto it = results_.find(key);
  if (it == results_.end())
    throw std::out_of_range{
        "ResultSet: no result for this spec -- was it added to the plan? "
        "(key: " +
        key + ")"};
  return it->second;
}

const GroupResult& ResultSet::median_ref(const GroupSpec& spec,
                                         unsigned reps) const {
  if (reps == 0) throw std::invalid_argument{"group: reps must be >= 1"};
  // Rank the stored results without copying them (a GroupResult drags
  // per-member region profiles along); only the chosen median leaves
  // the set, and matrix() reads it in place.
  std::vector<const GroupResult*> runs;
  runs.reserve(reps);
  for (unsigned r = 0; r < reps; ++r)
    runs.push_back(&at(RunCache::group_key(spec, with_seed(base_, base_.seed + r))));
  std::sort(runs.begin(), runs.end(),
            [](const GroupResult* a, const GroupResult* b) {
              return a->members[0].cycles < b->members[0].cycles;
            });
  return *runs[runs.size() / 2];
}

GroupResult ResultSet::group(const GroupSpec& spec, unsigned reps) const {
  return median_ref(spec, reps);
}

RunResult ResultSet::solo(const SoloSpec& spec) const {
  return median_ref(GroupSpec::solo(spec.workload, spec.threads), spec.reps)
      .members[0];
}

ScalabilityResult ResultSet::scalability(const SweepSpec& spec) const {
  ScalabilityResult res;
  res.workload = spec.workload;
  res.rate_mode = wl::Registry::instance().at(spec.workload).rate_mode;
  double t1 = 0.0;
  for (unsigned n = 1; n <= spec.max_threads; ++n) {
    const RunResult& r =
        at(RunCache::group_key(GroupSpec::solo(spec.workload, n), base_))
            .members[0];
    res.threads.push_back(n);
    res.cycles.push_back(r.cycles);
    res.bw_gbs.push_back(r.avg_bw_gbs);
    const double ct = static_cast<double>(r.cycles);
    if (n == 1) t1 = ct;
    // Fixed-work speedup for shared-work applications; throughput
    // speedup for SPEC-rate copies (T copies of fixed per-copy work).
    res.speedup.push_back(res.rate_mode ? n * t1 / ct : t1 / ct);
  }
  res.cls = classify_scalability(res.max_speedup());
  return res;
}

PrefetchSensitivity ResultSet::prefetch(const PrefetchSpec& spec) const {
  const GroupSpec g = GroupSpec::solo(spec.workload, spec.threads);
  const RunResult& r_on =
      at(RunCache::group_key(g, prefetch_options(base_, true))).members[0];
  const RunResult& r_off =
      at(RunCache::group_key(g, prefetch_options(base_, false))).members[0];
  PrefetchSensitivity s;
  s.workload = spec.workload;
  s.cycles_on = r_on.cycles;
  s.cycles_off = r_off.cycles;
  s.speedup_ratio = r_off.cycles == 0
                        ? 1.0
                        : static_cast<double>(r_on.cycles) /
                              static_cast<double>(r_off.cycles);
  s.bw_on_gbs = r_on.avg_bw_gbs;
  s.bw_off_gbs = r_off.avg_bw_gbs;
  return s;
}

CorunMatrix ResultSet::matrix(const MatrixSpec& spec) const {
  CorunMatrix m;
  m.workloads = matrix_axis(spec);
  const std::size_t n = m.workloads.size();
  if (n == 0) throw std::logic_error{"matrix: no workloads"};
  if (!spec.solo_cycles.empty() && spec.solo_cycles.size() != n)
    throw std::invalid_argument{
        "matrix: solo_cycles size does not match the workload count"};
  if (spec.solo_cycles.empty()) {
    m.solo_cycles.reserve(n);
    for (const auto& w : m.workloads)
      m.solo_cycles.push_back(
          solo(SoloSpec{w, base_.threads, spec.reps}).cycles);
  } else {
    m.solo_cycles = spec.solo_cycles;
  }
  m.normalized.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t fg = 0; fg < n; ++fg)
    for (std::size_t bg = 0; bg < n; ++bg) {
      const GroupResult& cell = median_ref(
          pair_group(m.workloads[fg], m.workloads[bg], base_), spec.reps);
      m.normalized[fg][bg] = static_cast<double>(cell.members[0].cycles) /
                             static_cast<double>(m.solo_cycles[fg]);
    }
  return m;
}

}  // namespace coperf::harness
