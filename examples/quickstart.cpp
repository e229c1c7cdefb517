// Quickstart: run one workload solo on the simulated testbed and print
// its key sole-run characteristics (runtime, CPI, MPKI, bandwidth),
// mirroring the paper's Section IV methodology.
//
// Usage: quickstart [workload] [threads]
//   e.g. quickstart G-PR 4
#include <cstdlib>
#include <exception>
#include <iostream>

#include "harness/plan.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  const std::string workload = argc > 1 ? argv[1] : "G-PR";
  const unsigned threads =
      argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 4;

  const harness::RunOptions opt;  // scaled paper machine, Small inputs
  std::cout << "coperf quickstart\n"
            << "  machine : " << opt.machine.num_cores << " cores @ "
            << opt.machine.freq_ghz << " GHz, LLC "
            << opt.machine.l3.size_bytes / (1024 * 1024) << " MiB, "
            << opt.machine.peak_bw_gbs << " GB/s peak DRAM\n"
            << "  workload: " << workload << " (" << threads << " threads)\n\n";

  const harness::SoloSpec spec{workload, threads};
  harness::ExperimentPlan plan{opt};
  plan.add_solo(spec);
  const harness::RunResult r = plan.execute().solo(spec);

  std::cout << "runtime        : " << r.cycles << " cycles ("
            << r.seconds * 1e3 << " ms simulated)\n"
            << "instructions   : " << r.stats.instructions << "\n"
            << "CPI            : " << r.metrics.cpi << "\n"
            << "IPC            : " << r.metrics.ipc << "\n"
            << "LLC MPKI       : " << r.metrics.llc_mpki << "\n"
            << "L2 pending     : " << r.metrics.l2_pcp * 100 << "% of cycles\n"
            << "mem stalls     : "
            << 100.0 * r.stats.stall_cycles_mem / r.stats.cycles
            << "% of core cycles\n"
            << "barrier waits  : "
            << 100.0 * r.stats.barrier_wait_cycles / r.stats.cycles
            << "% of core cycles\n"
            << "DRAM bandwidth : " << r.avg_bw_gbs << " GB/s\n"
            << "footprint      : " << r.footprint_bytes / (1024.0 * 1024.0)
            << " MiB\n\n";

  std::cout << "hot regions (VTune-style attribution):\n";
  for (const auto& region : r.regions) {
    if (region.stats.cycles * 50 < r.stats.cycles) continue;  // <2% noise
    std::cout << "  " << region.region << ": " << region.stats.cycles
              << " cycles, CPI " << region.metrics.cpi << ", LLC MPKI "
              << region.metrics.llc_mpki << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
