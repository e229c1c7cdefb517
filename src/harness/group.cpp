#include "harness/group.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "harness/runcache.hpp"
#include "perf/profiler.hpp"
#include "wl/registry.hpp"

namespace coperf::harness {

namespace {

/// The bg-seed offset the pair harness has always used, applied per
/// member index so member 1 of a pair keeps its historical stream.
constexpr std::uint64_t kMemberSeedStride = 0x9E37u;

std::vector<unsigned> iota_cores(unsigned first, unsigned count) {
  std::vector<unsigned> cores(count);
  for (unsigned i = 0; i < count; ++i) cores[i] = first + i;
  return cores;
}

RunResult collect_member(sim::Machine& m, std::size_t app_index,
                         const wl::AppModel& model, sim::Cycle cycles,
                         const perf::BandwidthReport& bw, bool hit_limit) {
  RunResult r;
  r.workload = model.name();
  r.threads = model.threads();
  r.cycles = cycles;
  r.seconds = m.config().seconds(cycles);
  r.stats = m.app_stats(app_index);
  r.avg_bw_gbs =
      app_index < bw.app_avg_gbs.size() ? bw.app_avg_gbs[app_index] : 0.0;
  r.regions = perf::profile_app(m, app_index, /*min_cycles=*/1000);
  r.footprint_bytes = model.footprint_bytes();
  r.hit_cycle_limit = hit_limit;
  r.latency = m.app_latency(app_index);
  return r;
}

void validate(const GroupSpec& spec, const RunOptions& opt) {
  if (spec.members.empty())
    throw std::invalid_argument{"run_group: the group has no members"};
  bool any_foreground = false;
  for (const MemberSpec& mem : spec.members) {
    if (mem.workload.empty())
      throw std::invalid_argument{"run_group: member without a workload name"};
    if (mem.threads == 0)
      throw std::invalid_argument{"run_group: member '" + mem.workload +
                                  "' needs at least one thread"};
    any_foreground |= !mem.restart_until_done;
  }
  if (!any_foreground)
    throw std::invalid_argument{
        "run_group: every member loops forever -- at least one member must "
        "run to completion"};
  if (spec.total_threads() > opt.machine.num_cores)
    throw std::invalid_argument{
        "run_group: members need " + std::to_string(spec.total_threads()) +
        " cores but the machine has " +
        std::to_string(opt.machine.num_cores)};
}

GroupResult simulate_group(const GroupSpec& spec, const RunOptions& opt) {
  const auto& reg = wl::Registry::instance();
  sim::Machine m{opt.machine};
  m.set_sample_window(opt.sample_window);
  m.set_cycle_limit(opt.cycle_limit);

  std::vector<std::unique_ptr<wl::AppModel>> models;
  models.reserve(spec.members.size());
  unsigned first_core = 0;
  for (std::size_t i = 0; i < spec.members.size(); ++i) {
    const MemberSpec& mem = spec.members[i];
    auto model = reg.create(
        mem.workload,
        wl::AppParams{static_cast<sim::AppId>(i), mem.threads,
                      mem.size.value_or(opt.size),
                      opt.seed + i * kMemberSeedStride});
    sim::AppBinding binding;
    binding.id = static_cast<sim::AppId>(i);
    binding.cores = iota_cores(first_core, mem.threads);
    binding.sources = model->sources();
    if (mem.restart_until_done) {
      binding.background = true;
      binding.restart = [raw = model.get()] { raw->restart(); };
    }
    m.add_app(std::move(binding));
    first_core += mem.threads;
    models.push_back(std::move(model));
  }

  const sim::RunOutcome out = m.run();
  const auto bw = perf::summarize_bandwidth(m);

  GroupResult g;
  g.members.reserve(spec.members.size());
  for (std::size_t i = 0; i < spec.members.size(); ++i)
    g.members.push_back(collect_member(m, i, *models[i], out.app_finish[i], bw,
                                       out.hit_cycle_limit));
  g.runs_completed = out.bg_runs;
  g.total_avg_bw_gbs = bw.avg_total_gbs;
  g.finish_cycle = out.finish_cycle;
  g.hit_cycle_limit = out.hit_cycle_limit;
  return g;
}

}  // namespace

GroupSpec GroupSpec::solo(std::string workload, unsigned threads) {
  GroupSpec s;
  s.members.push_back(MemberSpec{std::move(workload), threads, {}, false});
  return s;
}

GroupSpec GroupSpec::pair(std::string fg, std::string bg, unsigned fg_threads,
                          unsigned bg_threads) {
  GroupSpec s;
  s.members.push_back(MemberSpec{std::move(fg), fg_threads, {}, false});
  s.members.push_back(MemberSpec{std::move(bg), bg_threads, {}, true});
  return s;
}

unsigned GroupSpec::total_threads() const {
  unsigned total = 0;
  for (const MemberSpec& m : members) total += m.threads;
  return total;
}

GroupResult run_group(const GroupSpec& spec, const RunOptions& opt) {
  validate(spec, opt);
  // Simulations are deterministic in the key's fields, so a cache hit
  // is bit-identical to re-running the simulation.
  RunCache& cache = RunCache::instance();
  std::string key;
  if (cache.enabled()) {
    key = RunCache::group_key(spec, opt);
    GroupResult cached;
    if (cache.lookup(key, &cached)) return cached;
  }
  GroupResult g = simulate_group(spec, opt);
  if (cache.enabled()) cache.store(key, g);
  return g;
}

}  // namespace coperf::harness
