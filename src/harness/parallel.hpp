// Host-side parallel fan-out for independent simulations.
//
// Every coperf simulation is self-contained (no shared mutable state
// between Machine instances), so experiment sweeps parallelize across
// host threads trivially. Work is executed on a process-wide persistent
// worker pool (spawned lazily, reused by every parallel_for call) so
// matrix sweeps stop paying thread create/join costs per call.
// Exceptions from workers are captured and rethrown on the caller.
#pragma once

#include <cstddef>
#include <functional>

namespace coperf::harness {

/// Runs body(i) for i in [0, total) on up to `host_threads` workers
/// (0 = hardware concurrency) from the persistent pool. Workers race on
/// a shared atomic counter, one index at a time, so lanes stay busy
/// when per-index cost varies (co-run cells differ wildly in cycles).
/// Blocks until all complete. The first exception thrown by any worker is rethrown
/// here; remaining workers stop claiming new indices.
void parallel_for(std::size_t total, unsigned host_threads,
                  const std::function<void(std::size_t)>& body);

/// Number of workers the persistent pool currently holds (diagnostics).
unsigned pool_size();

}  // namespace coperf::harness
