#include "probes.hpp"

#include <memory>
#include <stdexcept>

#include "harness/runner.hpp"
#include "sim/hierarchy.hpp"
#include "sim/machine.hpp"
#include "wl/registry.hpp"

namespace perfbench {
namespace {

using coperf::sim::Op;
using coperf::sim::OpKind;

constexpr unsigned kThreads = 4;
/// Warm creations per workload behind wl.create_us.
constexpr int kWarmCreates = 5;
/// Loads and stores kept per workload for the hierarchy replay.
constexpr std::size_t kReplayCap = 2'000'000;
/// Guard against a model whose stream never ends when drained alone.
constexpr std::uint64_t kDrainCap = 1'000'000'000;

coperf::wl::AppParams small_params(std::uint64_t seed) {
  return coperf::wl::AppParams{0, kThreads, coperf::wl::SizeClass::Small, seed};
}

struct Access {
  coperf::sim::Addr addr = 0;
  std::uint16_t pc = 0;
  std::uint8_t core = 0;
  bool write = false;
  bool allocate = true;
};

struct Drain {
  std::uint64_t ops = 0;
  double refill_s = 0.0;
  std::vector<Access> sample;
};

/// Pulls every op out of a fresh model's sources, round-robin over its
/// threads, releasing a barrier once every live thread is parked at it
/// (what the core model does in simulated time). Only refill() calls
/// are timed.
Drain drain_sources(const std::string& name, std::uint64_t seed) {
  auto model = coperf::wl::Registry::instance().create(name, small_params(seed));
  std::vector<coperf::sim::OpSource*> srcs = model->sources();
  const std::size_t n = srcs.size();
  std::vector<bool> done(n, false), parked(n, false);
  std::vector<OpKind> last(n, OpKind::Compute);
  std::vector<Op> buf(8192);
  Drain d;
  for (;;) {
    bool progressed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i] || parked[i]) continue;
      for (;;) {
        const double t0 = now_s();
        const std::size_t got = srcs[i]->refill(buf.data(), buf.size());
        d.refill_s += now_s() - t0;
        if (got == 0) {
          (last[i] == OpKind::Barrier ? parked : done)[i] = true;
          break;
        }
        progressed = true;
        d.ops += got;
        last[i] = buf[got - 1].kind;
        for (std::size_t k = 0; k < got && d.sample.size() < kReplayCap; ++k) {
          const Op& op = buf[k];
          if (op.kind != OpKind::Load && op.kind != OpKind::Store) continue;
          d.sample.push_back(Access{op.addr, op.pc, static_cast<std::uint8_t>(i),
                                    op.kind == OpKind::Store,
                                    op.dep != coperf::sim::Dep::Bypass});
        }
      }
    }
    bool any_parked = false;
    for (std::size_t i = 0; i < n; ++i) any_parked = any_parked || parked[i];
    // A round without a single op after a release means nothing is left.
    if (!any_parked || !progressed || d.ops > kDrainCap) break;
    for (std::size_t i = 0; i < n; ++i) {
      if (!parked[i]) continue;
      srcs[i]->barrier_passed();
      parked[i] = false;
      last[i] = OpKind::Compute;
    }
  }
  return d;
}

/// Replays `sample` through a fresh hierarchy; returns host seconds.
double replay(const std::vector<Access>& sample,
              const coperf::sim::MachineConfig& cfg) {
  auto mem = std::make_unique<coperf::sim::MemorySystem>(cfg);
  std::vector<coperf::sim::Cycle> now(cfg.num_cores, 0);
  const double t0 = now_s();
  for (const Access& a : sample) {
    const auto out =
        mem->demand_access(a.core, a.addr, a.pc, a.write, now[a.core], a.allocate);
    now[a.core] += 1 + out.latency;
  }
  return now_s() - t0;
}

}  // namespace

const std::vector<std::string>& tracked_workloads() {
  static const std::vector<std::string> kNames = {
      "Stream", "Bandit", "G-PR", "CIFAR",
      "fotonik3d", "swaptions", "IRSmk", "blackscholes"};
  return kNames;
}

std::map<std::string, double> create_models_once(std::uint64_t seed) {
  std::map<std::string, double> ms;
  const auto& reg = coperf::wl::Registry::instance();
  for (const std::string& w : tracked_workloads()) {
    const double t0 = now_s();
    auto model = reg.create(w, small_params(seed));
    ms[w] = (now_s() - t0) * 1e3;
  }
  return ms;
}

void probe_wl(std::uint64_t seed, std::map<std::string, double> first_ms,
              Ledger& out) {
  if (first_ms.empty()) first_ms = create_models_once(seed);
  const auto& reg = coperf::wl::Registry::instance();
  std::vector<double> create_us, sources_us;
  for (const std::string& w : tracked_workloads()) {
    out.set("wl.setup_ms." + w, first_ms.at(w), "ms");
    for (int k = 0; k < kWarmCreates; ++k) {
      const double t0 = now_s();
      auto model = reg.create(w, small_params(seed));
      const double t1 = now_s();
      (void)model->sources();
      create_us.push_back((t1 - t0) * 1e6);
      sources_us.push_back((now_s() - t1) * 1e6);
    }
  }
  const Quantile create = quantile(create_us, 0.5);
  out.set("wl.create_us", create.value, "us");
  out.set("wl.create_us.n", static_cast<double>(create.n), "count");
  out.set("wl.sources_us", median(sources_us), "us");
}

std::string probe_sim(std::uint64_t seed, Ledger& out) {
  const coperf::harness::RunOptions opt;  // the scaled machine, Small inputs
  const auto& reg = coperf::wl::Registry::instance();
  Digest digest;
  double run_s = 0.0, refill_s = 0.0, replay_s = 0.0;
  std::uint64_t drained = 0, replayed = 0;
  coperf::sim::CoreStats core;
  coperf::sim::CacheStats caches;
  std::uint64_t dram_bytes = 0, queue_delay = 0;
  for (const std::string& w : tracked_workloads()) {
    coperf::sim::Machine m{opt.machine};
    m.set_sample_window(opt.sample_window);
    m.set_cycle_limit(opt.cycle_limit);
    auto model = reg.create(w, small_params(seed));
    coperf::sim::AppBinding binding;
    for (unsigned c = 0; c < kThreads; ++c) binding.cores.push_back(c);
    binding.sources = model->sources();
    m.add_app(std::move(binding));
    const double t0 = now_s();
    const coperf::sim::RunOutcome ro = m.run();
    const double dt = now_s() - t0;
    if (ro.hit_cycle_limit)
      throw std::runtime_error{"sim probe: " + w + " hit the cycle limit"};
    run_s += dt;
    const coperf::sim::CoreStats s = m.app_stats(0);
    core += s;
    out.set("sim.mcycles_per_s." + w, static_cast<double>(s.cycles) / 1e6 / dt,
            "Mcycles/s");
    coperf::sim::CacheStats level;
    for (unsigned c = 0; c < opt.machine.num_cores; ++c) {
      level += m.mem().l1(c).stats();
      level += m.mem().l2(c).stats();
    }
    level += m.mem().l3().stats();
    caches += level;
    const coperf::sim::MemoryStats& ch = m.mem().channel().stats();
    dram_bytes += ch.total_bytes();
    queue_delay += ch.queue_delay_cycles;
    digest.str(w).u64(ro.finish_cycle).u64(s.cycles).u64(s.instructions)
        .u64(s.loads).u64(s.stores).u64(s.l1d_hits).u64(s.l2_hits)
        .u64(s.l3_hits).u64(s.l3_misses).u64(s.prefetches_issued)
        .u64(level.prefetch_fills).u64(level.back_invalidations)
        .u64(ch.total_bytes()).u64(ch.queue_delay_cycles);

    const Drain d = drain_sources(w, seed);
    drained += d.ops;
    refill_s += d.refill_s;
    replayed += d.sample.size();
    replay_s += replay(d.sample, opt.machine);
  }
  const double accesses = static_cast<double>(core.loads + core.stores);
  const double opgen_ns = refill_s * 1e9 / static_cast<double>(drained);
  const double hier_ns = replay_s * 1e9 / static_cast<double>(replayed);
  out.set("sim.run_s", run_s, "s");
  out.set("sim.ns_per_access", run_s * 1e9 / accesses, "ns");
  out.set("sim.opgen_ns_per_op", opgen_ns, "ns");
  out.set("sim.hierarchy_ns_per_access", hier_ns, "ns");
  out.set("sim.pump_s",
          run_s - opgen_ns * 1e-9 * static_cast<double>(drained) -
              hier_ns * 1e-9 * accesses,
          "s");
  out.set("sim.instructions", static_cast<double>(core.instructions), "count");
  out.set("sim.core_cycles", static_cast<double>(core.cycles), "count");
  out.set("sim.l1_hits", static_cast<double>(core.l1d_hits), "count");
  out.set("sim.l2_hits", static_cast<double>(core.l2_hits), "count");
  out.set("sim.l3_hits", static_cast<double>(core.l3_hits), "count");
  out.set("sim.l3_misses", static_cast<double>(core.l3_misses), "count");
  out.set("sim.prefetches_issued", static_cast<double>(core.prefetches_issued),
          "count");
  out.set("sim.prefetch_fills", static_cast<double>(caches.prefetch_fills),
          "count");
  out.set("sim.l3_back_invalidations",
          static_cast<double>(caches.back_invalidations), "count");
  out.set("sim.dram_bytes", static_cast<double>(dram_bytes), "bytes");
  out.set("sim.mem_queue_delay_cycles", static_cast<double>(queue_delay),
          "count");
  return digest.hex();
}

}  // namespace perfbench
