// Simulator-throughput tracker: how fast the hot path turns host time
// into simulated work, measured on the experiment the repo runs most --
// the fig5 co-run matrix build.
//
// Three phases:
//   1. solo characterization: every workload simulated alone, reporting
//      simulated-cycles-per-wall-second and MB/s of demand-access line
//      traffic (loads+stores, 64 B per access) -- the raw hot-path
//      throughput numbers tracked across PRs;
//   2. cold matrix build: the full fg x bg sweep with an empty run
//      cache (every pair simulated for real);
//   3. warm matrix build: the identical sweep again -- with the run
//      cache it must finish with ZERO new simulations.
//
// --json appends a machine-readable object and persists it as
// BENCH_sim_throughput.json (the CI perf gates read that file).
// Each matrix phase builds and executes one ExperimentPlan on every
// host lane; idle lanes pick up straggler trials.
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "harness/plan.hpp"
#include "harness/report.hpp"
#include "harness/runcache.hpp"

namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace coperf;

  auto args = bench::parse_args(argc, argv, bench::kSubset | bench::kJson);
  // This bench defaults to the 8-workload Tiny configuration the perf
  // trajectory tracks (override with --size/--subset as usual).
  if (!args.size_override && !args.native) args.size_override = wl::SizeClass::Tiny;
  bench::print_config(args, "simulator throughput (solo + corun matrix)");

  std::vector<std::string> subset = args.subset;
  if (subset.empty())
    subset = {"Stream", "Bandit", "G-PR", "CIFAR", "fotonik3d",
              "swaptions", "IRSmk", "blackscholes"};

  harness::RunCache& cache = harness::RunCache::instance();
  // Phases must measure real simulation: park the disk layer so stale
  // entries from earlier invocations cannot serve the "cold" build,
  // and force the memory layer ON -- the warm-build zero-new-sims
  // check below is vacuous with the cache disabled (COPERF_RUN_CACHE=0
  // would leave the stats counters at zero while re-simulating).
  const std::string saved_disk = cache.disk_dir();
  const bool saved_enabled = cache.enabled();
  cache.set_enabled(true);
  cache.set_disk_dir("");
  cache.clear();
  cache.reset_stats();

  // ---- phase 1: solo characterization -------------------------------
  std::uint64_t sim_cycles = 0, instructions = 0, accesses = 0,
                mem_bytes = 0;
  json::Value solo_breakdown = json::array();
  const double t0 = now_seconds();
  for (const auto& w : subset) {
    const double tw = now_seconds();
    const harness::RunResult r = harness::run_solo(w, args.run_options());
    const double wall = now_seconds() - tw;
    solo_breakdown.items.push_back(json::object(
        {{"workload", json::str(w)}, {"wall_s", json::real(wall)},
         {"sim_cycles", json::integer(r.stats.cycles)},
         {"sim_cycles_per_s",
          json::real(static_cast<double>(r.stats.cycles) /
                     (wall > 0.0 ? wall : 1e-9))}}));
    sim_cycles += r.stats.cycles;
    instructions += r.stats.instructions;
    accesses += r.stats.loads + r.stats.stores;
    mem_bytes += r.stats.bytes_from_mem;
  }
  const double solo_wall = now_seconds() - t0;
  const double access_mb =
      static_cast<double>(accesses) * sim::kLineBytes / 1e6;
  std::cout << "solo: " << subset.size() << " workloads in "
            << harness::Table::fmt(solo_wall, 2) << " s -> "
            << harness::Table::fmt(static_cast<double>(sim_cycles) / 1e6 /
                                       solo_wall,
                                   1)
            << " M simulated core-cycles/s, "
            << harness::Table::fmt(access_mb / solo_wall, 1)
            << " MB of demand accesses/s\n";
  // Per-workload breakdown: which application dominates the solo wall
  // time (and whose simulated-cycle rate regressed) at a glance.
  for (const json::Value& row : solo_breakdown.items)
    std::cout << "  solo " << row.at("workload").str() << ": "
              << harness::Table::fmt(row.at("wall_s").num(), 3) << " s, "
              << harness::Table::fmt(row.at("sim_cycles_per_s").num() / 1e6, 1)
              << " M cycles/s\n";

  // ---- phase 2: cold matrix build ------------------------------------
  const harness::MatrixSpec mspec{subset, args.effective_reps(), {}};
  const auto build_matrix = [&] {
    harness::ExperimentPlan plan = args.plan();
    plan.add_matrix(mspec);
    return plan.execute().matrix(mspec);
  };

  cache.clear();  // phase 1's solos must not warm the "cold" build
  cache.reset_stats();
  const double t1 = now_seconds();
  const harness::CorunMatrix cold = build_matrix();
  const double cold_wall = now_seconds() - t1;
  const auto cold_stats = cache.stats();
  // plan.utilization / pool.workers are written by the cold build's
  // ExperimentPlan::execute (the warm build overwrites them with a
  // degenerate all-cache-hit sample, so read them here).
  const double cold_util =
      obs::Registry::instance().gauge("plan.utilization").value();
  const double cold_lanes =
      obs::Registry::instance().gauge("plan.lanes").value();
  std::cout << "matrix cold: " << subset.size() << "x" << subset.size()
            << " in " << harness::Table::fmt(cold_wall, 2) << " s ("
            << cold_stats.misses << " simulations)\n";
  std::cout << "  utilization: "
            << harness::Table::fmt(100.0 * cold_util, 1) << " % of "
            << static_cast<unsigned>(cold_lanes)
            << " host lane(s) busy simulating (plan.utilization)\n";

  // ---- phase 3: warm matrix build ------------------------------------
  cache.reset_stats();
  // The registry's runcache.* counters are process-wide (reset_stats
  // never touches them): take a delta across the warm phase instead.
  const std::uint64_t misses_before_warm =
      obs::Registry::instance().counter("runcache.misses").value();
  const double t2 = now_seconds();
  const harness::CorunMatrix warm = build_matrix();
  const double warm_wall = now_seconds() - t2;
  const auto warm_stats = cache.stats();
  std::cout << "matrix warm: " << harness::Table::fmt(warm_wall, 2) << " s ("
            << warm_stats.misses << " new simulations, "
            << warm_stats.hits << " cache hits)\n";

  bool identical = cold.size() == warm.size();
  for (std::size_t i = 0; identical && i < cold.size(); ++i)
    for (std::size_t j = 0; identical && j < cold.size(); ++j)
      identical = cold.at(i, j) == warm.at(i, j);
  std::cout << "warm matrix " << (identical ? "identical" : "DIVERGED")
            << "; speedup cold/warm = "
            << harness::Table::fmt(cold_wall / warm_wall, 1) << "x\n";

  // Publish the pass/fail facts on the metrics surface, where CI
  // asserts them (--metrics=FILE) instead of grepping bench prose.
  obs::Registry& reg = obs::Registry::instance();
  reg.gauge("sim_throughput.warm_misses")
      .set(static_cast<double>(reg.counter("runcache.misses").value() -
                               misses_before_warm));
  reg.gauge("sim_throughput.warm_identical").set(identical ? 1.0 : 0.0);

  cache.set_disk_dir(saved_disk);
  cache.set_enabled(saved_enabled);

  if (args.json)
    bench::emit_json(
        "sim_throughput",
        json::object(
            {{"config",
              json::object(
                  {{"size", json::str(bench::size_name(args.size()))},
                   {"threads", json::integer(args.threads)},
                   {"reps", json::integer(args.effective_reps())},
                   {"workloads", json::integer(subset.size())}})},
             {"solo",
              json::object(
                  {{"wall_s", json::real(solo_wall)},
                   {"sim_cycles", json::integer(sim_cycles)},
                   {"sim_cycles_per_s",
                    json::real(static_cast<double>(sim_cycles) / solo_wall)},
                   {"instructions", json::integer(instructions)},
                   {"access_mb", json::real(access_mb)},
                   {"access_mb_per_s", json::real(access_mb / solo_wall)},
                   {"dram_bytes", json::integer(mem_bytes)}})},
             {"solo_breakdown", std::move(solo_breakdown)},
             {"matrix_cold",
              json::object({{"wall_s", json::real(cold_wall)},
                            {"simulations", json::integer(cold_stats.misses)},
                            {"utilization", json::real(cold_util)},
                            {"lanes", json::real(cold_lanes)}})},
             {"matrix_warm",
              json::object({{"wall_s", json::real(warm_wall)},
                            {"new_simulations",
                             json::integer(warm_stats.misses)},
                            {"cache_hits", json::integer(warm_stats.hits)},
                            {"identical", json::boolean(identical)}})}}));
  // The warm build regressing to real simulations is a correctness
  // failure of the run cache, not a perf blip: fail loudly.
  return (warm_stats.misses == 0 && identical) ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
