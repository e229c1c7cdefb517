// Observability metrics registry (obs subsystem).
//
// The paper's whole method is measurement -- attributing slowdown to
// counters and regions (Section VI) -- and this module applies the
// same discipline to the reproduction itself: named process-wide
// counters, gauges, and log-bucket histograms that every layer
// (harness plan execution, RunCache, group-truth builds, the cluster
// event loop) updates instead of printing ad-hoc stats. A snapshot is
// one JSON object, so benches expose it uniformly via --metrics and CI
// asserts on it (e.g. "zero RunCache misses on the warm path") instead
// of grepping bespoke output.
//
// Cost model: every update is a relaxed atomic on a pre-resolved
// handle; when metrics are disabled the update is a single relaxed
// bool load and a branch (the zero-overhead-when-off guarantee --
// nothing here ever touches simulator state, so results are identical
// either way). Handles returned by Registry are valid for the process
// lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>

#include "obs/quantile.hpp"

namespace coperf::obs {

/// Process-wide metrics switch. Defaults to ON (updates are coarse --
/// per trial / per cache probe, never per simulated op); set false for
/// the branch-only fast path.
bool metrics_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;

/// Microseconds of wall clock since the first obs call in the process
/// (steady clock). Shared epoch with Trace timestamps.
double wall_us() noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value-wins instantaneous measurement.
class Gauge {
 public:
  void set(double v) noexcept {
    if (!metrics_enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(double d) noexcept {
    if (!metrics_enabled()) return;
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Histogram over unsigned values with the fixed log2 buckets of
/// obs/quantile.hpp: bucket b holds values whose bit width is b, i.e.
/// [2^(b-1), 2^b); value 0 lands in bucket 0. 65 buckets cover the full
/// uint64 range, so a record() is always one bucket increment -- no
/// locking, no dynamic resizing, mergeable across processes.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  double mean() const noexcept;
  std::uint64_t bucket(unsigned b) const noexcept;
  /// The q-quantile linearly interpolated within its bucket
  /// (obs/quantile.hpp math); 0.0 for an empty histogram.
  double quantile(double q) const noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kQuantileBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Process-wide named-metric registry. Lookup is a mutex-guarded map
/// probe -- callers on warm paths resolve their handle once and keep
/// the reference (handles live for the process lifetime).
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Canonical labeled-series name: "name{key=value}".
  static std::string labeled(const std::string& name, const std::string& key,
                             const std::string& value) {
    return name + "{" + key + "=" + value + "}";
  }

  /// One JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,mean,p50,p90,p99,buckets}}}, names
  /// sorted, stable across runs. The percentiles are quantile(q).
  void snapshot_json(std::ostream& os) const;
  std::string snapshot_json() const;

  /// Zeroes every registered metric (registrations survive).
  void reset();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry();
  struct Impl;
  Impl* impl_;  // leaked with the singleton (safe in atexit handlers)
};

}  // namespace coperf::obs
