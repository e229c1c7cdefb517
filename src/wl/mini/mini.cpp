// The two memory-stressing mini-benchmarks of Section III-B.
//
// Stream (McCalpin): four kernels (Copy/Scale/Add/Triad) sweeping large
// arrays with unit stride. Hardware prefetchers turn the miss stream
// into L2/L3 hits, so Stream consumes close to the machine's practical
// peak bandwidth (paper: 24.5 GB/s of 28 GB/s at 4 threads).
//
// Bandit (Dr-BW): a conflict-miss generator -- every access collides
// with its predecessor in the same cache sets, defeating caches and all
// four prefetchers, so its bandwidth is bounded by per-core
// memory-level parallelism (paper: ~18 GB/s at 4 threads). Because the
// conflicts confine it to a handful of sets, it consumes bandwidth
// WITHOUT polluting the shared LLC -- the reason the paper finds
// Bandit-level contention barely hurts co-runners (Fig. 6a). Modelled
// with Dep::Bypass (non-allocating) accesses.
#include <cstdint>

#include "util/rng.hpp"
#include "wl/registry.hpp"
#include "wl/regions.hpp"
#include "wl/sim_array.hpp"
#include "wl/workload.hpp"

namespace coperf::wl {
namespace {

using sim::Dep;

// ---------------------------------------------------------------------
// McCalpin Stream
// ---------------------------------------------------------------------
class StreamModel final : public WorkloadBase {
 public:
  explicit StreamModel(const AppParams& p)
      : WorkloadBase("Stream", p, sim::ThreadAttr{0.5, 16}),
        rounds_(p.size == SizeClass::Tiny ? 1 : 2) {
    const std::size_t doubles_per_array =
        scaled_size(128 * 1024, p.size, 32 * 1024);  // 1 MiB per array (Small)
    a_.reserve(p.threads);
    b_.reserve(p.threads);
    c_.reserve(p.threads);
    for (unsigned t = 0; t < p.threads; ++t) {
      a_.emplace_back(space(), doubles_per_array);
      b_.emplace_back(space(), doubles_per_array);
      c_.emplace_back(space(), doubles_per_array);
    }
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const auto& a = a_[tid];
    const auto& b = b_[tid];
    const auto& c = c_[tid];
    const std::size_t lines = a.bytes() / sim::kLineBytes;
    constexpr std::size_t kPerLine = sim::kLineBytes / sizeof(double);

    co_await ctx.region(region_id("Stream/kernels"));
    for (unsigned r = 0; r < rounds_; ++r) {
      // Copy: c[i] = a[i]
      for (std::size_t l = 0; l < lines; ++l) {
        co_await ctx.load(a.addr_of(l * kPerLine), 11);
        co_await ctx.store(c.addr_of(l * kPerLine), 12);
        co_await ctx.compute(8);
      }
      // Scale: b[i] = s * c[i]
      for (std::size_t l = 0; l < lines; ++l) {
        co_await ctx.load(c.addr_of(l * kPerLine), 13);
        co_await ctx.store(b.addr_of(l * kPerLine), 14);
        co_await ctx.compute(12);
      }
      // Add: c[i] = a[i] + b[i]
      for (std::size_t l = 0; l < lines; ++l) {
        co_await ctx.load(a.addr_of(l * kPerLine), 15);
        co_await ctx.load(b.addr_of(l * kPerLine), 16);
        co_await ctx.store(c.addr_of(l * kPerLine), 17);
        co_await ctx.compute(12);
      }
      // Triad: a[i] = b[i] + s * c[i]
      for (std::size_t l = 0; l < lines; ++l) {
        co_await ctx.load(b.addr_of(l * kPerLine), 18);
        co_await ctx.load(c.addr_of(l * kPerLine), 19);
        co_await ctx.store(a.addr_of(l * kPerLine), 20);
        co_await ctx.compute(16);
      }
    }
  }

 private:
  unsigned rounds_;
  std::vector<GhostArray<double>> a_, b_, c_;
};

// ---------------------------------------------------------------------
// Bandit
// ---------------------------------------------------------------------
class BanditModel final : public WorkloadBase {
 public:
  explicit BanditModel(const AppParams& p)
      : WorkloadBase("Bandit", p, sim::ThreadAttr{0.6, 9}),
        accesses_(scaled_size(150'000, p.size, 2000)) {
    const std::size_t bytes = scaled_size(8u << 20, p.size, 1u << 20);
    for (unsigned t = 0; t < p.threads; ++t)
      region_.emplace_back(space(), bytes / sim::kLineBytes);
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const auto& mem = region_[tid];
    const std::size_t lines = mem.size();
    // Large coprime stride: successive accesses alias in cache sets and
    // never share a page-local stream (prefetcher-hostile by design).
    constexpr std::size_t kStride = 40'961;  // prime, > one 4K page in lines
    std::size_t idx = 17 + tid * 131;

    co_await ctx.region(region_id("Bandit/chase"));
    for (std::uint64_t i = 0; i < accesses_; ++i) {
      idx = (idx + kStride) % lines;
      co_await ctx.load(mem.addr_of(idx), 31, Dep::Bypass);
      co_await ctx.compute(3);
    }
  }

 private:
  std::uint64_t accesses_;
  std::vector<GhostArray<CacheLine>> region_;
};

}  // namespace

void register_mini(Registry& r) {
  r.add(WorkloadInfo{
      "Stream", "mini",
      "McCalpin STREAM: regular unit-stride kernels, prefetcher-friendly, "
      "near-peak bandwidth",
      false,
      [](const AppParams& p) { return std::make_unique<StreamModel>(p); }});
  r.add(WorkloadInfo{
      "Bandit", "mini",
      "Dr-BW Bandit: conflict-missing accesses that defeat caches and "
      "prefetchers; pure bandwidth pressure",
      false,
      [](const AppParams& p) { return std::make_unique<BanditModel>(p); }});
}

}  // namespace coperf::wl
