// The benchmark's four workloads. Each builds its inputs from the input
// set (a seed), runs one cold timed execution per iteration, and folds
// its outputs into a digest that is compared against the pinned one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

struct Options {
  unsigned input = 1;  ///< input set, 1-based
  unsigned lanes = 1;  ///< harness pool lanes
  std::string tmpdir;  ///< private scratch directory (disk run cache)
};

/// One timed execution of a workload.
struct Iteration {
  double wall_s = 0.0;
  std::uint64_t attempted = 0;  ///< trials or arrivals
  std::uint64_t failed = 0;     ///< failed its own checks
  std::string digest;           ///< hex digest of the outputs
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input the timed phase needs (models' process-wide
  /// inputs, traces, fault schedules). Counted in setup_s only.
  virtual void setup() = 0;
  /// One cold execution. With `layers` set, the calls into each layer
  /// are also timed and counted into it.
  virtual Iteration run(Ledger* layers) = 0;
  /// First creation times (ms) of the tracked models, when setup()
  /// created them at Small inputs; empty otherwise.
  virtual std::map<std::string, double> model_setup_ms() const { return {}; }
};

/// matrix_small, truth_tiny3, fleet_10k or fleet_churn.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opt);

/// Small variants of truth_tiny3 (2 slots), fleet_10k (1k x 100k) and
/// fleet_churn (256 x 80k). A traced run takes from them the ledger
/// entries of the layers its own workload leaves idle.
std::vector<std::unique_ptr<Workload>> make_layer_probes(const Options& opt);

}  // namespace perfbench
