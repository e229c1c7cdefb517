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

namespace coperf::util {

/// Runs body(i) for i in [0, total) on up to `host_threads` workers
/// (0 = as lane_count() counts) from the persistent pool. Workers race on
/// a shared atomic counter, one index at a time, so lanes stay busy
/// when per-index cost varies (co-run cells differ wildly in cycles).
/// Blocks until all complete. The first exception thrown by any worker is rethrown
/// here; remaining workers stop claiming new indices.
void parallel_for(std::size_t total, unsigned host_threads,
                  const std::function<void(std::size_t)>& body);

/// Lanes parallel_for(total, host_threads, ...) runs on, the caller
/// included: host_threads (0 = the CPUs in this thread's affinity
/// mask, so `taskset -c 0` gives 1; hardware concurrency if the mask
/// cannot be read; 4 if that is unknown too), capped at one per index,
/// and at least one.
unsigned lane_count(std::size_t total, unsigned host_threads);

/// Number of workers the persistent pool currently holds (diagnostics).
unsigned pool_size();

}  // namespace coperf::util
