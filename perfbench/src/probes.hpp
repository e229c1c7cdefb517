// Standalone layer probes of the traced run: the workload model layer
// (wl) and the simulator (sim), each driven through its public entry
// points on the eight tracked workloads solo at Small inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

/// The Fig. 5 subset every simulator workload of the benchmark uses.
const std::vector<std::string>& tracked_workloads();

/// First creation of each tracked model at Small inputs, in ms per
/// workload. Includes process-wide input builds (the R-MAT graph).
std::map<std::string, double> create_models_once(std::uint64_t seed);

/// wl.* metrics: first creation per workload (taken from `first_ms`
/// when the caller already created the models, else measured now) and
/// warm per-trial creation and source arming.
void probe_wl(std::uint64_t seed, std::map<std::string, double> first_ms,
              Ledger& out);

/// sim.* metrics: each tracked workload solo on Machine::run, its op
/// streams drained standalone, and a sample of their loads and stores
/// replayed through a fresh MemorySystem. Returns the digest of every
/// exact simulated count, which must not change with tracing or with a
/// perf-only change.
std::string probe_sim(std::uint64_t seed, Ledger& out);

}  // namespace perfbench
