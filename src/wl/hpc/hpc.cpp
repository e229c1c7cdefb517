// LLNL HPC workload models (Table I: lulesh, IRSmk, AMG2006).
//
// Characteristics reproduced (Sections IV-A..C, Fig. 2f/3/4):
//  - lulesh: Sedov blast solver -- nodal gathers through an element
//    connectivity array plus regular element sweeps with heavy FP ->
//    good scalability, moderate-high bandwidth, prefetch-sensitive.
//  - IRSmk: 27-point stencil matvec over many coefficient arrays ->
//    very high bandwidth (paper: 18.1 GB/s @4T), strongly
//    prefetch-sensitive, scalability saturating around 6 threads.
//    A chief co-run "offender".
//  - AMG2006: algebraic multigrid with two single-threaded setup
//    phases followed by a bandwidth-hungry parallel solve (paper:
//    low/medium scalability; offender behaviour limited to phase 3).
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
// lulesh
// ---------------------------------------------------------------------
class LuleshModel final : public WorkloadBase {
 public:
  explicit LuleshModel(const AppParams& p)
      : WorkloadBase("lulesh", p, sim::ThreadAttr{0.55, 10}),
        elems_per_thread_(scaled_size(160'000, p.size, 4000) / p.threads),
        timesteps_(p.size == SizeClass::Tiny ? 1 : 3),
        nodes_(space(), elems_per_thread_ * p.threads * 3 / 2),
        rgn_force_(region_id("lulesh/CalcForceForNodes")),
        rgn_eos_(region_id("lulesh/EvalEOSForElems")) {
    util::SplitMix64 rng{util::seed_combine(p.seed, 0x1A1E5)};
    for (unsigned t = 0; t < p.threads; ++t) {
      elem_data_.emplace_back(space(), elems_per_thread_ * 8);
      nodelist_.emplace_back(space(), elems_per_thread_ * 8);
    }
    // Real hex-mesh connectivity: each element touches 8 pseudo-random
    // nearby nodes (locality window mimics a structured mesh ordering).
    conn_.resize(elems_per_thread_ * 8);
    const std::size_t n_nodes = nodes_.size();
    for (std::size_t e = 0; e < elems_per_thread_; ++e) {
      const std::size_t base = e * n_nodes / elems_per_thread_;
      for (unsigned c = 0; c < 8; ++c)
        conn_[e * 8 + c] =
            static_cast<std::uint32_t>((base + rng.below(4096)) % n_nodes);
    }
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const auto& elem = elem_data_[tid];
    const auto& nl = nodelist_[tid];
    for (unsigned step = 0; step < timesteps_; ++step) {
      // ---- nodal force gather: indirection through the connectivity --
      co_await ctx.region(rgn_force_);
      LineTracker nl_line;
      for (std::size_t e = 0; e < elems_per_thread_; ++e) {
        if (nl_line.touch(nl.addr_of(e * 8)))
          co_await ctx.load(nl.addr_of(e * 8), 341);
        for (unsigned c = 0; c < 8; ++c) {
          const std::uint32_t node = conn_[e * 8 + c];
          co_await ctx.load(nodes_.addr_of(node), 342);
        }
        co_await ctx.compute(160);  // hourglass + stress partials
        co_await ctx.store(elem.addr_of(e * 8), 343);
      }
      co_await ctx.barrier();

      // ---- EOS sweep: regular streaming over element arrays ----------
      co_await ctx.region(rgn_eos_);
      for (std::size_t d = 0; d < elem.size(); d += kDoublesPerLine) {
        co_await ctx.load(elem.addr_of(d), 344);
        co_await ctx.compute(90);
        co_await ctx.store(elem.addr_of(d), 345);
      }
      co_await ctx.barrier();
    }
  }

 private:
  std::size_t elems_per_thread_;
  unsigned timesteps_;
  GhostArray<double> nodes_;  ///< shared nodal fields
  std::vector<GhostArray<double>> elem_data_, nodelist_;
  std::vector<std::uint32_t> conn_;
  std::uint32_t rgn_force_, rgn_eos_;
};

// ---------------------------------------------------------------------
// IRSmk: b[i] = sum_k a_k[i] * x[i + off_k] over 27 coefficient arrays
// ---------------------------------------------------------------------
class IrsmkModel final : public WorkloadBase {
 public:
  explicit IrsmkModel(const AppParams& p)
      : WorkloadBase("IRSmk", p, sim::ThreadAttr{0.45, 14}),
        zones_per_thread_(scaled_size(200'000, p.size, 8192) / p.threads),
        sweeps_(p.size == SizeClass::Tiny ? 1 : 2),
        rgn_matvec_(region_id("IRSmk/rmatmult3")) {
    for (unsigned t = 0; t < p.threads; ++t) {
      // 27 coefficient arrays + x + b, laid out separately like the
      // real kernel's dbl/dbc/dbr/dcl/... arrays.
      coeffs_.emplace_back();
      for (unsigned k = 0; k < 27; ++k)
        coeffs_.back().emplace_back(space(), zones_per_thread_);
      x_.emplace_back(space(), zones_per_thread_ + 4096);
      b_.emplace_back(space(), zones_per_thread_);
    }
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const auto& coeffs = coeffs_[tid];
    const auto& x = x_[tid];
    const auto& b = b_[tid];
    // Plane/row offsets of the 27-point stencil (3 planes of 9).
    constexpr std::ptrdiff_t kRowOffsets[9] = {0,    1,    2,    128,  129,
                                               130,  256,  257,  258};
    co_await ctx.region(rgn_matvec_);
    for (unsigned sweep = 0; sweep < sweeps_; ++sweep) {
      for (std::size_t z = 0; z < zones_per_thread_; z += kDoublesPerLine) {
        // 27 coefficient streams, one line each per 8 zones.
        for (unsigned k = 0; k < 27; ++k)
          co_await ctx.load(coeffs[k].addr_of(z), 350);
        // 9 distinct x rows cover the 27 taps (3 per row share lines).
        for (const auto off : kRowOffsets)
          co_await ctx.load(x.addr_of(z + static_cast<std::size_t>(off)), 351);
        co_await ctx.compute(27 * kDoublesPerLine);  // FMA per tap per zone
        co_await ctx.store(b.addr_of(z), 352);
      }
      co_await ctx.barrier();
    }
  }

 private:
  std::size_t zones_per_thread_;
  unsigned sweeps_;
  std::vector<std::vector<GhostArray<double>>> coeffs_;
  std::vector<GhostArray<double>> x_, b_;
  std::uint32_t rgn_matvec_;
};

// ---------------------------------------------------------------------
// AMG2006: serial setup phases + parallel multigrid solve
// ---------------------------------------------------------------------
class AmgModel final : public WorkloadBase {
 public:
  explicit AmgModel(const AppParams& p)
      : WorkloadBase("AMG2006", p, sim::ThreadAttr{0.55, 10}),
        rows_per_thread_(scaled_size(120'000, p.size, 4096) / p.threads),
        solve_sweeps_(p.size == SizeClass::Tiny ? 2 : 3),
        setup_(space(), scaled_size(700'000, p.size, 8192)),
        x_(space(), rows_per_thread_ * p.threads),
        rgn_setup_(region_id("AMG2006/setup(serial)")),
        rgn_solve_(region_id("AMG2006/solve(SpMV)")) {
    const std::size_t nnz_per_row = 27;
    util::SplitMix64 rng{util::seed_combine(p.seed, 0xA36)};
    cols_.resize(rows_per_thread_ * p.threads * nnz_per_row);
    const std::size_t n = x_.size();
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      // Banded sparsity: mostly near-diagonal with occasional long links.
      const std::size_t row = i / nnz_per_row;
      const std::size_t jitter = rng.below(2048);
      cols_[i] = static_cast<std::uint32_t>((row + jitter) % n);
    }
    for (unsigned t = 0; t < p.threads; ++t) {
      vals_.emplace_back(space(), rows_per_thread_ * nnz_per_row);
      colind_.emplace_back(space(), rows_per_thread_ * nnz_per_row);
    }
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    constexpr std::size_t kNnzPerRow = 27;
    // ---- phases 1 & 2: single-threaded setup (paper Section IV-A) ----
    co_await ctx.region(rgn_setup_);
    for (unsigned phase = 0; phase < 2; ++phase) {
      if (tid == 0) {
        for (std::size_t d = 0; d < setup_.size(); d += kDoublesPerLine) {
          co_await ctx.load(setup_.addr_of(d), 361);
          co_await ctx.compute(18);
          co_await ctx.store(setup_.addr_of(d), 362);
        }
      }
      co_await ctx.barrier();
    }

    // ---- phase 3: parallel SpMV solve sweeps --------------------------
    co_await ctx.region(rgn_solve_);
    const auto& vals = vals_[tid];
    const auto& cind = colind_[tid];
    const std::size_t row0 = rows_per_thread_ * tid;
    for (unsigned sweep = 0; sweep < solve_sweeps_; ++sweep) {
      LineTracker val_line, col_line;
      for (std::size_t r = 0; r < rows_per_thread_; ++r) {
        for (std::size_t k = 0; k < kNnzPerRow; ++k) {
          const std::size_t idx = r * kNnzPerRow + k;
          if (val_line.touch(vals.addr_of(idx)))
            co_await ctx.load(vals.addr_of(idx), 363);
          if (col_line.touch(cind.addr_of(idx)))
            co_await ctx.load(cind.addr_of(idx), 364);
          const std::uint32_t col = cols_[(row0 + r) * kNnzPerRow + k];
          co_await ctx.load(x_.addr_of(col), 365);
        }
        co_await ctx.compute(5 * kNnzPerRow);
        co_await ctx.store(x_.addr_of(row0 + r), 366);
      }
      co_await ctx.barrier();
    }
  }

 private:
  std::size_t rows_per_thread_;
  unsigned solve_sweeps_;
  GhostArray<double> setup_, x_;
  std::vector<GhostArray<double>> vals_;
  std::vector<GhostArray<std::uint32_t>> colind_;
  std::vector<std::uint32_t> cols_;
  std::uint32_t rgn_setup_, rgn_solve_;
};

}  // namespace

void register_hpc(Registry& r) {
  r.add({"lulesh", "HPC", "Sedov blast solver: nodal gathers + element sweeps",
         false,
         [](const AppParams& p) { return std::make_unique<LuleshModel>(p); }});
  r.add({"IRSmk", "HPC", "27-point stencil matvec, bandwidth-dominated", false,
         [](const AppParams& p) { return std::make_unique<IrsmkModel>(p); }});
  r.add({"AMG2006", "HPC",
         "algebraic multigrid: serial setup phases + parallel SpMV solve",
         false,
         [](const AppParams& p) { return std::make_unique<AmgModel>(p); }});
}

}  // namespace coperf::wl
