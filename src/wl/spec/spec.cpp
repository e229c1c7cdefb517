// SPEC CPU2017 workload models (Table I: mcf, fotonik3d, deepsjeng,
// nab, xalancbmk, cactuBSSN), executed in SPEC-rate style: N threads
// run N independent copies, each with private data (Section III-B).
//
// Characteristics reproduced (Fig. 2e/3/4, Table IV):
//  - mcf: network-simplex pointer chasing over a >LLC arc network ->
//    high LLC MPKI, latency-bound, prefetch-insensitive, scales in
//    rate mode.
//  - fotonik3d: FDTD field sweeps over many large arrays -> ~18 GB/s
//    @4 copies, LLC MPKI ~21 that co-runners barely change (pure
//    streaming), highly prefetch-sensitive, saturates after 4 copies.
//    The paper's chief offender AND a bandwidth victim. Its hot region
//    is tagged "UUS" to match Table IV.
//  - deepsjeng: alpha-beta search: hash probes into a cache-resident
//    table + heavy compute -> near-linear rate scaling.
//  - nab: molecular dynamics on a small working set -> compute-bound,
//    co-run friendly.
//  - xalancbmk: DOM traversal, pointer chasing over a medium tree ->
//    medium bandwidth and medium rate scaling.
//  - cactuBSSN: BSSN stencil with very heavy per-point FP -> regular
//    streams, moderate bandwidth, near-linear scaling.
#include <algorithm>
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
// mcf: network simplex over an arc/node network (pointer chasing)
// ---------------------------------------------------------------------
class McfModel final : public WorkloadBase {
 public:
  explicit McfModel(const AppParams& p)
      : WorkloadBase("mcf", p, sim::ThreadAttr{0.7, 4}),
        arcs_per_copy_(scaled_size(120'000, p.size, 4096)),
        pivots_(scaled_size(14'000, p.size, 1200)),
        rgn_simplex_(region_id("mcf/primal_bea_mpp")) {
    for (unsigned t = 0; t < p.threads; ++t) {
      arcs_.emplace_back(space(), arcs_per_copy_);
      nodes_.emplace_back(space(), arcs_per_copy_ / 3);
    }
  }

 protected:
  struct Arc {
    std::uint64_t cost;
    std::uint32_t tail, head;
    std::uint64_t flow;
    std::uint64_t ident;
  };  // 32 bytes, 2 per line

  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    util::SplitMix64 rng{util::seed_combine(0x3CF, tid)};
    const auto& arcs = arcs_[tid];
    const auto& nodes = nodes_[tid];
    co_await ctx.region(rgn_simplex_);
    for (std::uint64_t pivot = 0; pivot < pivots_; ++pivot) {
      // Price scan: walk a random run of arcs (semi-sequential)...
      std::uint64_t a = rng.below(arcs.size());
      for (unsigned k = 0; k < 14; ++k) {
        co_await ctx.load(arcs.addr_of(a), 401);
        a = (a + 2) % arcs.size();
        co_await ctx.compute(6);
      }
      // ...then chase the spanning-tree path (dependent loads); the
      // tree root region is hot, the leaves are cold.
      const std::uint64_t hot_nodes = (256 * 1024) / 32;
      std::uint64_t node = rng.below(nodes.size());
      for (unsigned d = 0; d < 6; ++d) {
        co_await ctx.load(nodes.addr_of(node), 402, Dep::Chain);
        const std::uint64_t h = node * 0x9E3779B97F4A7C15ull + d;
        node = (h & 1) ? h % hot_nodes : h % nodes.size();
        co_await ctx.compute(5);
      }
      co_await ctx.store(nodes.addr_of(node), 403);
    }
  }

 private:
  std::size_t arcs_per_copy_;
  std::uint64_t pivots_;
  std::vector<GhostArray<Arc>> arcs_;
  std::vector<GhostArray<Arc>> nodes_;
  std::uint32_t rgn_simplex_;
};

// ---------------------------------------------------------------------
// fotonik3d: FDTD sweeps; hot region "UUS" per Table IV
// ---------------------------------------------------------------------
class FotonikModel final : public WorkloadBase {
 public:
  explicit FotonikModel(const AppParams& p)
      : WorkloadBase("fotonik3d", p, sim::ThreadAttr{0.45, 14}),
        cells_per_copy_(scaled_size(210'000, p.size, 32'768)),
        sweeps_(p.size == SizeClass::Tiny ? 1 : 2),
        rgn_uus_(region_id("fotonik3d/UUS")) {
    // Six field arrays (Ex,Ey,Ez,Hx,Hy,Hz) per copy, each > private L2.
    for (unsigned t = 0; t < p.threads; ++t) {
      fields_.emplace_back();
      for (unsigned f = 0; f < 6; ++f)
        fields_.back().emplace_back(space(), cells_per_copy_);
    }
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const auto& f = fields_[tid];
    co_await ctx.region(rgn_uus_);
    for (unsigned sweep = 0; sweep < sweeps_; ++sweep) {
      // E update reads H fields and writes E (then vice versa):
      // three loads + one store per line, unit stride, per field pair.
      for (unsigned pair = 0; pair < 3; ++pair) {
        const auto& e = f[pair];
        const auto& h1 = f[3 + pair];
        const auto& h2 = f[3 + (pair + 1) % 3];
        for (std::size_t i = 0; i < cells_per_copy_; i += kDoublesPerLine) {
          co_await ctx.load(e.addr_of(i), 411);
          co_await ctx.load(h1.addr_of(i), 412);
          co_await ctx.load(h2.addr_of(i), 413);
          co_await ctx.compute(140);  // curl + PML update, 8 cells/line
          co_await ctx.store(e.addr_of(i), 414);
        }
      }
    }
  }

 private:
  std::size_t cells_per_copy_;
  unsigned sweeps_;
  std::vector<std::vector<GhostArray<double>>> fields_;
  std::uint32_t rgn_uus_;
};

// ---------------------------------------------------------------------
// deepsjeng: alpha-beta search with transposition-table probes
// ---------------------------------------------------------------------
class DeepsjengModel final : public WorkloadBase {
 public:
  explicit DeepsjengModel(const AppParams& p)
      : WorkloadBase("deepsjeng", p, sim::ThreadAttr{0.6, 6}),
        searches_(scaled_size(26'000, p.size, 1000)),
        rgn_search_(region_id("deepsjeng/search")) {
    for (unsigned t = 0; t < p.threads; ++t)
      ttable_.emplace_back(space(), (1536 * 1024) / 16);  // 1.5 MB hash table
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    util::SplitMix64 rng{util::seed_combine(0xD5, tid)};
    const auto& tt = ttable_[tid];
    co_await ctx.region(rgn_search_);
    const std::uint64_t hot_slots = (128 * 1024) / 16;  // hot upper tree
    for (std::uint64_t node = 0; node < searches_; ++node) {
      // Transposition probe + possible store, then heavy evaluation.
      // Search locality: most probes land in the hot upper tree.
      const std::uint64_t slot = (rng.below(100) < 75)
                                     ? rng.below(hot_slots)
                                     : rng.below(tt.size());
      co_await ctx.load(tt.addr_of(slot), 421);
      if ((node & 7) == 0) co_await ctx.store(tt.addr_of(slot), 422);
      co_await ctx.compute(420);  // move gen + static eval
    }
  }

 private:
  std::uint64_t searches_;
  std::vector<GhostArray<std::uint8_t[16]>> ttable_;
  std::uint32_t rgn_search_;
};

// ---------------------------------------------------------------------
// nab: molecular dynamics on a small working set
// ---------------------------------------------------------------------
class NabModel final : public WorkloadBase {
 public:
  explicit NabModel(const AppParams& p)
      : WorkloadBase("nab", p, sim::ThreadAttr{0.65, 8}),
        steps_(p.size == SizeClass::Tiny ? 1 : 3),
        atoms_(scaled_size(14'000, p.size, 512)) {
    rgn_force_ = region_id("nab/egb_forces");
    for (unsigned t = 0; t < p.threads; ++t) {
      coords_.emplace_back(space(), atoms_ * 4);
      neigh_.emplace_back(space(), atoms_ * 24);
    }
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    util::SplitMix64 rng{util::seed_combine(0xAB, tid)};
    const auto& xyz = coords_[tid];
    const auto& nl = neigh_[tid];
    co_await ctx.region(rgn_force_);
    for (unsigned step = 0; step < steps_; ++step) {
      LineTracker nl_line;
      for (std::size_t a = 0; a < atoms_; ++a) {
        for (unsigned k = 0; k < 24; ++k) {
          const std::size_t idx = a * 24 + k;
          if (nl_line.touch(nl.addr_of(idx)))
            co_await ctx.load(nl.addr_of(idx), 431);
          // Neighbours cluster nearby: small working set, cache-kind.
          const std::size_t nb = (a + rng.below(256)) % atoms_;
          co_await ctx.load(xyz.addr_of(nb * 4), 432);
          co_await ctx.compute(34);  // GB pairwise term
        }
        co_await ctx.store(xyz.addr_of(a * 4), 433);
      }
    }
  }

 private:
  unsigned steps_;
  std::size_t atoms_;
  std::vector<GhostArray<double>> coords_;
  std::vector<GhostArray<std::uint32_t>> neigh_;
  std::uint32_t rgn_force_;
};

// ---------------------------------------------------------------------
// xalancbmk: XSLT/DOM traversal (pointer chasing, medium footprint)
// ---------------------------------------------------------------------
class XalancbmkModel final : public WorkloadBase {
 public:
  explicit XalancbmkModel(const AppParams& p)
      : WorkloadBase("xalancbmk", p, sim::ThreadAttr{0.7, 3}),
        traversals_(scaled_size(12'000, p.size, 800)),
        rgn_walk_(region_id("xalancbmk/dom_walk")) {
    for (unsigned t = 0; t < p.threads; ++t)
      dom_.emplace_back(space(), (1536 * 1024) / 64);  // 1.5 MB DOM arena
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    util::SplitMix64 rng{util::seed_combine(0x8A1, tid)};
    const auto& dom = dom_[tid];
    co_await ctx.region(rgn_walk_);
    const std::uint64_t hot_nodes = (192 * 1024) / 64;  // hot template part
    for (std::uint64_t t = 0; t < traversals_; ++t) {
      std::uint64_t node = (rng.below(100) < 65) ? rng.below(hot_nodes)
                                                 : rng.below(dom.size());
      const unsigned depth = 5 + static_cast<unsigned>(rng.below(8));
      for (unsigned d = 0; d < depth; ++d) {
        co_await ctx.load(dom.addr_of(node), 441, Dep::Chain);
        node = (node * 2654435761ull + 1) % dom.size();
        co_await ctx.compute(16);  // string compare + dispatch
      }
      if ((t & 3) == 0) co_await ctx.store(dom.addr_of(node), 442);
    }
  }

 private:
  std::uint64_t traversals_;
  std::vector<GhostArray<std::uint8_t[64]>> dom_;
  std::uint32_t rgn_walk_;
};

// ---------------------------------------------------------------------
// cactuBSSN: structured-grid relativity stencil, FLOP-dominated
// ---------------------------------------------------------------------
class CactuModel final : public WorkloadBase {
 public:
  explicit CactuModel(const AppParams& p)
      : WorkloadBase("cactuBSSN", p, sim::ThreadAttr{0.5, 10}),
        points_per_copy_(scaled_size(60'000, p.size, 2048)),
        sweeps_(p.size == SizeClass::Tiny ? 1 : 3),
        rgn_rhs_(region_id("cactuBSSN/BSSN_RHS")) {
    for (unsigned t = 0; t < p.threads; ++t) {
      grids_.emplace_back();
      for (unsigned g = 0; g < 10; ++g)
        grids_.back().emplace_back(space(), points_per_copy_);
    }
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const auto& g = grids_[tid];
    co_await ctx.region(rgn_rhs_);
    for (unsigned sweep = 0; sweep < sweeps_; ++sweep) {
      for (std::size_t i = 0; i < points_per_copy_; i += kDoublesPerLine) {
        for (unsigned a = 0; a < 10; ++a) co_await ctx.load(g[a].addr_of(i), 451);
        co_await ctx.compute(640);  // BSSN right-hand side is FLOP-huge
        for (unsigned a = 0; a < 3; ++a) co_await ctx.store(g[a].addr_of(i), 452);
      }
    }
  }

 private:
  std::size_t points_per_copy_;
  unsigned sweeps_;
  std::vector<std::vector<GhostArray<double>>> grids_;
  std::uint32_t rgn_rhs_;
};

}  // namespace

void register_spec(Registry& r) {
  r.add({"cactuBSSN", "SPEC CPU2017", "BSSN stencil, FLOP-dominated", true,
         [](const AppParams& p) { return std::make_unique<CactuModel>(p); }});
  r.add({"xalancbmk", "SPEC CPU2017", "DOM traversal pointer chasing", true,
         [](const AppParams& p) {
           return std::make_unique<XalancbmkModel>(p);
         }});
  r.add({"deepsjeng", "SPEC CPU2017", "alpha-beta search + hash probes", true,
         [](const AppParams& p) {
           return std::make_unique<DeepsjengModel>(p);
         }});
  r.add({"fotonik3d", "SPEC CPU2017",
         "FDTD field sweeps (UUS); chief bandwidth offender", true,
         [](const AppParams& p) { return std::make_unique<FotonikModel>(p); }});
  r.add({"mcf", "SPEC CPU2017", "network simplex pointer chasing", true,
         [](const AppParams& p) { return std::make_unique<McfModel>(p); }});
  r.add({"nab", "SPEC CPU2017", "molecular dynamics, small working set", true,
         [](const AppParams& p) { return std::make_unique<NabModel>(p); }});
}

}  // namespace coperf::wl
