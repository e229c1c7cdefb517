// Ablation studies of the simulator's design choices,
// as google-benchmark microbenches:
//   - BM_SimThroughput: raw simulation speed (ops/second),
//   - BM_QuantumSensitivity: result stability vs. the sync quantum,
//   - BM_MlpWindow: victimhood of a gather kernel vs. its MLP window,
//   - BM_InclusiveLlc: inclusive vs. non-inclusive LLC under co-run,
//   - BM_PrefetchDegree: streamer aggressiveness vs. Stream bandwidth.
#include <benchmark/benchmark.h>

#include "harness/group.hpp"

namespace {

using namespace coperf;

harness::RunOptions tiny_opts() {
  harness::RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = wl::SizeClass::Tiny;
  o.threads = 4;
  return o;
}

void BM_SimThroughput(benchmark::State& state) {
  const auto opt = tiny_opts();
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const auto r = harness::run_solo("G-PR", opt);
    instructions += r.stats.instructions;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimThroughput)->Unit(benchmark::kMillisecond);

void BM_QuantumSensitivity(benchmark::State& state) {
  auto opt = tiny_opts();
  opt.machine.quantum_cycles = static_cast<std::uint32_t>(state.range(0));
  sim::Cycle cycles = 0;
  for (auto _ : state) {
    const auto r =
        harness::run_group(harness::GroupSpec::pair("G-PR", "Stream"), opt);
    cycles = r.members[0].cycles;
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["fg_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_QuantumSensitivity)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_MlpWindow(benchmark::State& state) {
  auto opt = tiny_opts();
  opt.machine.mshr_per_core = static_cast<std::uint32_t>(state.range(0));
  sim::Cycle cycles = 0;
  for (auto _ : state) {
    const auto r =
        harness::run_group(harness::GroupSpec::pair("G-PR", "Stream"), opt);
    cycles = r.members[0].cycles;
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["fg_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_MlpWindow)->Arg(2)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_InclusiveLlc(benchmark::State& state) {
  auto opt = tiny_opts();
  opt.machine.l3_inclusive = state.range(0) != 0;
  sim::Cycle cycles = 0;
  for (auto _ : state) {
    const auto r =
        harness::run_group(harness::GroupSpec::pair("G-CC", "Stream"), opt);
    cycles = r.members[0].cycles;
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["fg_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_InclusiveLlc)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_PrefetchDegree(benchmark::State& state) {
  auto opt = tiny_opts();
  opt.machine.streamer_degree = static_cast<std::uint32_t>(state.range(0));
  opt.sample_window = 50'000;  // Tiny runs need a fine PCM window
  double bw = 0;
  for (auto _ : state) {
    const auto r = harness::run_solo("Stream", opt);
    // NOTE: DoNotOptimize on a double clobbers it with this
    // google-benchmark version (integer-register constraint); the
    // counter assignment below is a sufficient side effect.
    bw = r.avg_bw_gbs;
    benchmark::ClobberMemory();
  }
  state.counters["stream_gbs"] = benchmark::Counter(bw);
}
BENCHMARK(BM_PrefetchDegree)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
