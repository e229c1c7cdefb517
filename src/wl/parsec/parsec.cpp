// PARSEC workload models (Table I: blackscholes, freqmine, swaptions,
// streamcluster) with native-input-class behaviour.
//
// Characteristics reproduced (Sections IV-A..C, Fig. 2d/3/4):
//  - blackscholes: embarrassingly parallel FP over a modest option
//    array that caches after the first pass -> ~8x scalability, very
//    low bandwidth, co-run friendly.
//  - swaptions: Monte Carlo over thread-private state -> linear
//    scaling, near-zero bandwidth.
//  - freqmine: FP-growth over an L2-resident prefix tree -> pointer
//    chasing that caches well, high scalability, low bandwidth.
//  - streamcluster: distance kernel streaming a >LLC point set against
//    hot centers -> high bandwidth, prefetcher-sensitive, scalability
//    saturating after 4 threads (a paper "offender"-adjacent victim).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "util/rng.hpp"
#include "wl/emit.hpp"
#include "wl/registry.hpp"
#include "wl/regions.hpp"
#include "wl/sim_array.hpp"
#include "wl/workload.hpp"

namespace coperf::wl {
namespace {

using sim::Addr;
using sim::Dep;

// ---------------------------------------------------------------------
// blackscholes
// ---------------------------------------------------------------------
struct Option {
  float spot, strike, rate, vol, time;
  float price;
  std::int32_t type;
  float pad;
};
static_assert(sizeof(Option) == 32);

/// The real Black-Scholes closed form (verified in tests against
/// reference values).
float black_scholes_price(const Option& o) {
  const float d1 =
      (std::log(o.spot / o.strike) + (o.rate + 0.5f * o.vol * o.vol) * o.time) /
      (o.vol * std::sqrt(o.time));
  const float d2 = d1 - o.vol * std::sqrt(o.time);
  auto cndf = [](float x) {
    return 0.5f * std::erfc(-x * 0.70710678f);
  };
  const float call = o.spot * cndf(d1) -
                     o.strike * std::exp(-o.rate * o.time) * cndf(d2);
  if (o.type == 0) return call;
  return call - o.spot + o.strike * std::exp(-o.rate * o.time);  // put-call parity
}

class BlackscholesModel final : public WorkloadBase {
 public:
  explicit BlackscholesModel(const AppParams& p)
      : WorkloadBase("blackscholes", p, sim::ThreadAttr{0.8, 8}),
        options_(space(), scaled_size(32 * 1024, p.size, 1024)),
        runs_(p.size == SizeClass::Tiny ? 2 : 6),
        rgn_price_(region_id("blackscholes/price_loop")) {
    util::SplitMix64 rng{util::seed_combine(p.seed, 0xB5)};
    for (std::size_t i = 0; i < options_.size(); ++i) {
      Option& o = options_[i];
      o.spot = 80.0f + 40.0f * static_cast<float>(rng.uniform());
      o.strike = 80.0f + 40.0f * static_cast<float>(rng.uniform());
      o.rate = 0.02f + 0.04f * static_cast<float>(rng.uniform());
      o.vol = 0.1f + 0.4f * static_cast<float>(rng.uniform());
      o.time = 0.25f + 1.75f * static_cast<float>(rng.uniform());
      o.type = static_cast<std::int32_t>(rng.below(2));
      o.price = 0.0f;
    }
  }

  const SimArray<Option>& options() const { return options_; }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const std::size_t n = options_.size();
    const std::size_t beg = n * tid / threads();
    const std::size_t end = n * (tid + 1) / threads();
    co_await ctx.region(rgn_price_);
    for (unsigned run = 0; run < runs_; ++run) {
      LineTracker opt_line;
      for (std::size_t i = beg; i < end; ++i) {
        if (opt_line.touch(options_.addr_of(i)))
          co_await ctx.load(options_.addr_of(i), 301);
        options_[i].price = black_scholes_price(options_[i]);
        co_await ctx.compute(240);  // exp/log/erfc-heavy closed form
        co_await ctx.store(options_.addr_of(i), 302);
      }
      co_await ctx.barrier();  // PARSEC reruns the pricing NUM_RUNS times
    }
  }

 private:
  SimArray<Option> options_;
  unsigned runs_;
  std::uint32_t rgn_price_;
};

// ---------------------------------------------------------------------
// swaptions: HJM Monte Carlo over thread-private scratch
// ---------------------------------------------------------------------
class SwaptionsModel final : public WorkloadBase {
 public:
  explicit SwaptionsModel(const AppParams& p)
      : WorkloadBase("swaptions", p, sim::ThreadAttr{0.75, 6}),
        swaptions_(16),
        trials_(scaled_size(800, p.size, 48)),
        rgn_sim_(region_id("swaptions/hjm_simulation")) {
    for (unsigned t = 0; t < p.threads; ++t)
      scratch_.emplace_back(space(), 12 * 1024 / sizeof(float));
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const auto& path = scratch_[tid];
    const std::size_t path_lines = path.bytes() / sim::kLineBytes;
    constexpr std::size_t kFloatsPerLine = sim::kLineBytes / sizeof(float);
    // Swaptions are distributed statically, like the PARSEC pthreads code.
    const unsigned s_beg = swaptions_ * tid / threads();
    const unsigned s_end = swaptions_ * (tid + 1) / threads();

    co_await ctx.region(rgn_sim_);
    for (unsigned s = s_beg; s < s_end; ++s) {
      for (std::uint64_t trial = 0; trial < trials_; ++trial) {
        // One HJM path: sweep the private scratch (L1-resident) with
        // heavy FP between touches.
        for (std::size_t l = 0; l < path_lines; ++l) {
          co_await ctx.load(path.addr_of(l * kFloatsPerLine), 311);
          co_await ctx.compute(60);
          co_await ctx.store(path.addr_of(l * kFloatsPerLine), 312);
        }
        co_await ctx.compute(200);  // discounting + payoff
      }
    }
  }

 private:
  unsigned swaptions_;
  std::uint64_t trials_;
  std::vector<GhostArray<float>> scratch_;
  std::uint32_t rgn_sim_;
};

// ---------------------------------------------------------------------
// freqmine: FP-growth over an L2-resident prefix tree
// ---------------------------------------------------------------------
class FreqmineModel final : public WorkloadBase {
 public:
  explicit FreqmineModel(const AppParams& p)
      : WorkloadBase("freqmine", p, sim::ThreadAttr{0.7, 6}),
        transactions_(scaled_size(220'000, p.size, 4000)),
        rgn_build_(region_id("freqmine/tree_build")),
        rgn_mine_(region_id("freqmine/mining")) {
    // One FP-tree shard per thread (FP-growth partitions by item).
    const std::size_t nodes = 48 * 1024 / sizeof(TreeNode);
    for (unsigned t = 0; t < p.threads; ++t) {
      trees_.emplace_back(space(), nodes);
      streams_.emplace_back(space(), 512 * 1024 / sim::kLineBytes);
    }
  }

 protected:
  struct TreeNode {
    std::uint32_t item, count, child, sibling;
  };

  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    util::SplitMix64 rng{util::seed_combine(0xF9, tid)};
    const auto& tree = trees_[tid];
    const auto& stream = streams_[tid];
    const std::size_t nodes = tree.size();
    const std::uint64_t txn = transactions_ / threads();

    // FP-tree touches are heavily skewed towards the top levels (the
    // frequent items), which stay L1-resident; and independent
    // transactions give the walks instruction-level parallelism, so the
    // descents are Indep rather than one serial pointer chain.
    const std::uint64_t hot_nodes = (8 * 1024) / sizeof(TreeNode);
    auto next_node = [&](std::uint64_t h) {
      return (h & 7) != 0 ? h % hot_nodes : h % nodes;  // ~87% hot-top
    };

    // Build: stream transactions, descend the prefix tree.
    co_await ctx.region(rgn_build_);
    for (std::uint64_t t = 0; t < txn; ++t) {
      co_await ctx.load(stream.addr_of(t % stream.size()), 321);
      std::uint64_t node = rng.below(nodes);
      const unsigned depth = 6 + static_cast<unsigned>(rng.below(6));
      for (unsigned d = 0; d < depth; ++d) {
        co_await ctx.load(tree.addr_of(node), 322, Dep::Indep);
        node = next_node(node * 2654435761ull + d);
        co_await ctx.compute(12);
      }
      co_await ctx.store(tree.addr_of(node), 323);
    }
    co_await ctx.barrier();

    // Mine: conditional-pattern walks, compute-heavier.
    co_await ctx.region(rgn_mine_);
    for (std::uint64_t t = 0; t < txn / 2; ++t) {
      std::uint64_t node = rng.below(nodes);
      const unsigned depth = 8 + static_cast<unsigned>(rng.below(8));
      for (unsigned d = 0; d < depth; ++d) {
        co_await ctx.load(tree.addr_of(node), 324, Dep::Indep);
        node = next_node(node * 0x9E3779B9ull + d);
        co_await ctx.compute(18);
      }
    }
  }

 private:
  std::uint64_t transactions_;
  std::vector<GhostArray<TreeNode>> trees_;
  std::vector<GhostArray<CacheLine>> streams_;
  std::uint32_t rgn_build_, rgn_mine_;
};

// ---------------------------------------------------------------------
// streamcluster: kmedian distance kernel over a streamed point set
// ---------------------------------------------------------------------
class StreamclusterModel final : public WorkloadBase {
 public:
  explicit StreamclusterModel(const AppParams& p)
      : WorkloadBase("streamcluster", p, sim::ThreadAttr{0.5, 12}),
        dims_(32),
        iters_(p.size == SizeClass::Tiny ? 2 : 4),
        rgn_dist_(region_id("streamcluster/pgain_distance")) {
    const std::size_t points_per_thread =
        scaled_size(104'000, p.size, 2048) / p.threads;
    for (unsigned t = 0; t < p.threads; ++t)
      points_.emplace_back(space(), points_per_thread * dims_);
    centers_ = std::make_unique<GhostArray<float>>(space(), 16 * dims_);
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const auto& pts = points_[tid];
    const std::size_t point_lines = dims_ * sizeof(float) / sim::kLineBytes;
    const std::size_t n_points = pts.size() / dims_;
    constexpr std::size_t kFloatsPerLine = sim::kLineBytes / sizeof(float);

    co_await ctx.region(rgn_dist_);
    for (unsigned it = 0; it < iters_; ++it) {
      for (std::size_t pt = 0; pt < n_points; ++pt) {
        // Stream the point (2 lines for 32 float dims)...
        for (std::size_t l = 0; l < point_lines; ++l)
          co_await ctx.load(pts.addr_of(pt * dims_ + l * kFloatsPerLine), 331);
        // ...and compare against the hot center block.
        for (std::size_t c = 0; c < 4; ++c)
          co_await ctx.load(centers_->addr_of(c * dims_), 332);
        co_await ctx.compute(3 * dims_);  // dist() FMA chain
      }
      co_await ctx.barrier();  // reclustering step between passes
    }
  }

 private:
  std::size_t dims_;
  unsigned iters_;
  std::vector<GhostArray<float>> points_;
  std::unique_ptr<GhostArray<float>> centers_;
  std::uint32_t rgn_dist_;
};

}  // namespace

void register_parsec(Registry& r) {
  r.add({"blackscholes", "PARSEC", "closed-form option pricing, compute-bound",
         false, [](const AppParams& p) {
           return std::make_unique<BlackscholesModel>(p);
         }});
  r.add({"freqmine", "PARSEC", "FP-growth mining over cached prefix trees",
         false,
         [](const AppParams& p) { return std::make_unique<FreqmineModel>(p); }});
  r.add({"swaptions", "PARSEC", "HJM Monte Carlo, thread-private state", false,
         [](const AppParams& p) {
           return std::make_unique<SwaptionsModel>(p);
         }});
  r.add({"streamcluster", "PARSEC",
         "kmedian distance kernel streaming points against hot centers", false,
         [](const AppParams& p) {
           return std::make_unique<StreamclusterModel>(p);
         }});
}

}  // namespace coperf::wl
