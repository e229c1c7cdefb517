#include "obs/metrics.hpp"

#include <bit>

#include "obs/quantile.hpp"
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace coperf::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

}  // namespace

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) noexcept {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

double wall_us() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double, std::micro>(clock::now() - epoch)
      .count();
}

// --- Histogram -------------------------------------------------------

void Histogram::record(std::uint64_t v) noexcept {
  if (!metrics_enabled()) return;
  const unsigned b = v == 0 ? 0 : static_cast<unsigned>(std::bit_width(v));
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::uint64_t Histogram::bucket(unsigned b) const noexcept {
  return b < kBuckets ? buckets_[b].load(std::memory_order_relaxed) : 0;
}

double Histogram::quantile(double q) const noexcept {
  // Snapshot the buckets once so the interpolation sees one coherent
  // view even while other threads record.
  std::uint64_t snap[kBuckets];
  std::uint64_t n = 0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    snap[b] = bucket(b);
    n += snap[b];
  }
  return bucket_quantile(snap, n, q);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// --- Registry --------------------------------------------------------

struct Registry::Impl {
  mutable std::mutex mu;
  // Stable addresses: metric objects are heap-held and never erased.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::instance() {
  // Leaked: the snapshot may be taken from an atexit handler, after
  // function-local statics would have been destroyed.
  static Registry* reg = new Registry;
  return *reg;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock{impl_->mu};
  auto& slot = impl_->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock{impl_->mu};
  auto& slot = impl_->gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard lock{impl_->mu};
  auto& slot = impl_->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::snapshot_json(std::ostream& os) const {
  std::lock_guard lock{impl_->mu};
  os << "{\n  \"counters\": {";
  const char* sep = "";
  for (const auto& [name, c] : impl_->counters) {
    os << sep << "\n    " << json::quote(name) << ": " << c->value();
    sep = ",";
  }
  os << (impl_->counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  sep = "";
  for (const auto& [name, g] : impl_->gauges) {
    os << sep << "\n    " << json::quote(name) << ": "
       << json::number(g->value());
    sep = ",";
  }
  os << (impl_->gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  sep = "";
  for (const auto& [name, h] : impl_->histograms) {
    os << sep << "\n    " << json::quote(name) << ": {\"count\": "
       << h->count() << ", \"sum\": " << h->sum()
       << ", \"mean\": " << json::number(h->mean())
       << ", \"p50\": " << json::number(h->quantile(0.50))
       << ", \"p90\": " << json::number(h->quantile(0.90))
       << ", \"p99\": " << json::number(h->quantile(0.99))
       << ", \"buckets\": {";
    const char* bsep = "";
    for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
      if (h->bucket(b) == 0) continue;
      os << bsep << "\"" << b << "\": " << h->bucket(b);
      bsep = ", ";
    }
    os << "}}";
    sep = ",";
  }
  os << (impl_->histograms.empty() ? "" : "\n  ") << "}\n}\n";
}

std::string Registry::snapshot_json() const {
  std::ostringstream os;
  snapshot_json(os);
  return os.str();
}

void Registry::reset() {
  std::lock_guard lock{impl_->mu};
  for (auto& [name, c] : impl_->counters) c->reset();
  for (auto& [name, g] : impl_->gauges) g->reset();
  for (auto& [name, h] : impl_->histograms) h->reset();
}

}  // namespace coperf::obs
