#include "sim/machine.hpp"

#include <algorithm>

namespace coperf::sim {

Machine::Machine(const MachineConfig& cfg)
    : cfg_(cfg), mem_(cfg), core_to_app_(cfg.num_cores, -1) {
  cfg_.validate();
  cores_.reserve(cfg.num_cores);
  for (unsigned i = 0; i < cfg.num_cores; ++i) cores_.emplace_back(i, &mem_, this);
}

void Machine::add_app(AppBinding binding) {
  if (binding.cores.size() != binding.sources.size())
    throw std::invalid_argument{"AppBinding: cores/sources size mismatch"};
  if (binding.cores.empty())
    throw std::invalid_argument{"AppBinding: needs at least one thread"};
  if (binding.background && !binding.restart)
    throw std::invalid_argument{"background app needs a restart callback"};
  for (unsigned c : binding.cores) {
    if (c >= cfg_.num_cores)
      throw std::invalid_argument{"AppBinding: core id out of range"};
    if (core_to_app_[c] != -1)
      throw std::invalid_argument{"AppBinding: core " + std::to_string(c) +
                                  " already bound"};
    core_to_app_[c] = static_cast<int>(apps_.size());
  }
  for (std::size_t t = 0; t < binding.cores.size(); ++t)
    cores_[binding.cores[t]].attach(binding.sources[t], binding.id, global_);
  barriers_.push_back(BarrierGroup{
      static_cast<std::uint32_t>(binding.cores.size()), 0, 0, {}});
  bg_runs_.push_back(0);
  app_finish_.push_back(0);
  apps_.push_back(std::move(binding));
  rebuild_active_cores();
}

void Machine::rebuild_active_cores() {
  active_cores_.clear();
  for (unsigned c = 0; c < cfg_.num_cores; ++c) {
    const CoreState s = cores_[c].state();
    if (s == CoreState::Runnable || s == CoreState::Blocked)
      active_cores_.push_back(c);
  }
}

std::optional<Cycle> Machine::barrier_arrive(unsigned core, Cycle now) {
  const int app = core_to_app_[core];
  if (app < 0) throw std::logic_error{"barrier from unbound core"};
  BarrierGroup& g = barriers_[static_cast<std::size_t>(app)];
  g.max_arrival = std::max(g.max_arrival, now);
  ++g.arrived;
  if (g.arrived < g.parties) {
    g.waiting.push_back(core);
    return std::nullopt;
  }
  const Cycle release = g.max_arrival + barrier_overhead(g.parties);
  for (unsigned w : g.waiting) cores_[w].release_barrier(release);
  g.waiting.clear();
  g.arrived = 0;
  g.max_arrival = 0;
  return release;
}

bool Machine::foreground_done() const {
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (apps_[i].background) continue;
    for (unsigned c : apps_[i].cores)
      if (cores_[c].state() != CoreState::Done) return false;
  }
  return true;
}

void Machine::handle_background_restarts() {
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    AppBinding& a = apps_[i];
    if (!a.background) continue;
    const bool all_done = std::all_of(
        a.cores.begin(), a.cores.end(),
        [&](unsigned c) { return cores_[c].state() == CoreState::Done; });
    if (!all_done) continue;
    Cycle join = 0;
    for (unsigned c : a.cores) join = std::max(join, cores_[c].local_cycle());
    ++bg_runs_[i];
    app_finish_[i] = join;
    a.restart();
    for (std::size_t t = 0; t < a.cores.size(); ++t)
      cores_[a.cores[t]].attach(a.sources[t], a.id, join);
  }
}

void Machine::sample_bandwidth() {
  if (global_ < next_sample_) return;
  // Build the sample in place: the old local-then-push_back danced the
  // app_bytes vector through an extra allocate-and-copy per sample.
  BandwidthSample& s = samples_.emplace_back();
  s.cycle = global_;
  s.total_bytes = mem_.channel().stats().total_bytes();
  s.app_bytes.resize(apps_.size());
  for (std::size_t i = 0; i < apps_.size(); ++i)
    s.app_bytes[i] = mem_.channel().bytes_of(apps_[i].id);
  next_sample_ = global_ + sample_window_;
}

void Machine::check_progress() {
  // A barrier group can only be released by an arrival; if every core of
  // an app is Blocked or Done with arrivals outstanding, the workload
  // model has mismatched barrier counts across threads.
  bool any_runnable = false;
  for (const Core& c : cores_)
    if (c.state() == CoreState::Runnable) any_runnable = true;
  if (any_runnable) {
    stalled_quanta_ = 0;
    return;
  }
  if (++stalled_quanta_ > 2 && !foreground_done())
    throw std::runtime_error{
        "Machine: no runnable core but foreground unfinished -- "
        "barrier deadlock in a workload model (mismatched barrier counts?)"};
}

void Machine::step_quantum() {
  const Cycle qend = global_ + cfg_.quantum_cycles;
  // Visiting only Runnable/Blocked cores keeps finished (and never
  // bound) cores off the per-quantum path. Iteration stays in core-id
  // order, so a core released by a lower-numbered sibling still runs
  // within the same quantum, exactly like the full scan did.
  bool any_finished = false;
  for (unsigned c : active_cores_) {
    cores_[c].run_until(qend);
    any_finished |= cores_[c].state() == CoreState::Done;
  }
  global_ = qend;
  // A background app can only become all-Done in a quantum where some
  // core finished, so the restart scan is gated on that instead of
  // walking every app every quantum.
  if (any_finished) {
    handle_background_restarts();  // may re-arm Done background cores
    rebuild_active_cores();
  }
  sample_bandwidth();
  check_progress();
}

RunOutcome Machine::run() {
  if (apps_.empty()) throw std::logic_error{"Machine::run with no apps"};
  bool any_fg = false;
  for (const auto& a : apps_) any_fg |= !a.background;
  if (!any_fg) throw std::logic_error{"Machine::run needs a foreground app"};

  RunOutcome out;
  while (!foreground_done()) {
    if (global_ >= cycle_limit_) {
      out.hit_cycle_limit = true;
      break;
    }
    step_quantum();
  }
  // Close the PCM timeline so short runs still yield a bandwidth average.
  if (samples_.empty() || samples_.back().cycle < global_) {
    next_sample_ = global_;
    sample_bandwidth();
  }
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (apps_[i].background) continue;
    Cycle fin = 0;
    for (unsigned c : apps_[i].cores)
      fin = std::max(fin, cores_[c].local_cycle());
    app_finish_[i] = fin;
    out.finish_cycle = std::max(out.finish_cycle, fin);
  }
  out.app_finish = app_finish_;
  out.bg_runs = bg_runs_;
  return out;
}

CoreStats Machine::app_stats(std::size_t i) const {
  CoreStats total;
  for (unsigned c : apps_[i].cores) total += cores_[c].snapshot();
  return total;
}

LatencyStats Machine::app_latency(std::size_t i) const {
  LatencyStats total;
  for (unsigned c : apps_[i].cores) total += cores_[c].latency();
  return total;
}

std::vector<std::pair<std::uint32_t, CoreStats>> Machine::app_region_stats(
    std::size_t i) {
  // Flat sorted merge (regions are few); region 0 is the implicit
  // "untagged" region and is reported like any other.
  std::vector<std::pair<std::uint32_t, CoreStats>> merged;
  for (unsigned c : apps_[i].cores) {
    // Blocked cores cannot flush; snapshot what they have accumulated.
    for (const auto& [region, stats] : cores_[c].region_stats())
      region_bucket(merged, region) += stats;
  }
  return merged;
}

}  // namespace coperf::sim
