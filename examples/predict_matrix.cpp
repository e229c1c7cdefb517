// Walkthrough: predict a co-run matrix from solo runs only.
//
// The measured 25x25 sweep costs 625 co-runs. This example builds the
// same artifact from 6 solo runs and the analytic bandwidth-contention
// model, then feeds it -- unchanged -- to the classification layer,
// exactly as a measured matrix would be. example_schedule_cluster
// takes the next step: online placement on a predicted matrix.
#include <exception>
#include <iostream>
#include <sstream>

#include "harness/report.hpp"
#include "predict/eval.hpp"

int main() try {
  using namespace coperf;

  const std::vector<std::string> workloads = {"Stream", "Bandit",   "G-PR",
                                              "CIFAR",  "fotonik3d", "swaptions"};

  harness::RunOptions opt;
  opt.machine = sim::MachineConfig::scaled();
  opt.size = wl::SizeClass::Tiny;

  // Step 1: O(N) -- run each workload alone and extract its signature.
  std::cout << "solo-profiling " << workloads.size() << " workloads...\n";
  const auto sigs = predict::collect_signatures(workloads, opt, /*reps=*/1);
  for (const auto& s : sigs)
    std::cout << "  " << s.workload << ": bw " << harness::Table::fmt(s.solo_bw_gbs)
              << " GB/s, L2_PCP " << harness::Table::fmt(s.l2_pcp)
              << ", sensitivity " << harness::Table::fmt(s.sensitivity())
              << ", intensity " << harness::Table::fmt(s.intensity()) << "\n";

  // Signatures serialize to text, so profiling and prediction can run
  // as separate jobs (profile once, predict many times).
  std::stringstream stored;
  predict::save_signatures(stored, sigs);
  const auto reloaded = predict::load_signatures(stored);

  // Step 2: inference -- every cell from the analytic model.
  const predict::BandwidthContentionModel model;
  const harness::CorunMatrix m = predict::predicted_matrix(reloaded, model);

  std::cout << "\npredicted normalized-runtime matrix:\n";
  harness::print_heatmap(std::cout, m);

  // Step 3: the existing consumers take the predicted matrix unchanged.
  const auto counts = m.count_classes();
  std::cout << "\npredicted pair classes: " << counts.harmony << " Harmony, "
            << counts.victim_offender << " Victim-Offender, "
            << counts.both_victim << " Both-Victim\n";
  std::cout << "\nfor interference-aware placement on predicted costs, run "
               "example_schedule_cluster\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
