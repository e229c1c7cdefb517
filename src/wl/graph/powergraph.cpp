// PowerGraph workload models (Table I: P-PR, P-SSSP, P-CC).
//
// PowerGraph's signature vs. Gemini, per the paper: the classic
// gather-apply-scatter (GAS) execution model with a vertex-program
// indirection on every edge, static partitioning (so R-MAT's skew
// creates real load imbalance), more engine overhead per edge (lower
// bandwidth, higher CPI, longer runtimes), and -- for P-SSSP -- the
// degenerate identical-weight configuration whose serialized
// bookkeeping caps scalability below 2x (Section IV-A).
//
// The hot `gather` region of P-PR (pagerank.c L63-66, the paper's
// Fig. 10 / Table IV subject) is tagged for the region profiler.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "wl/graph/csr.hpp"
#include "wl/emit.hpp"
#include "wl/graph/engine.hpp"
#include "wl/registry.hpp"
#include "wl/regions.hpp"
#include "wl/sim_array.hpp"
#include "wl/workload.hpp"

namespace coperf::wl {
namespace {

using graph::FrontierSet;
using graph::Graph;
using graph::GraphSpec;
using graph::edge_balanced_range;
using graph::static_range;
using sim::Addr;
using sim::Dep;

/// PowerGraph's in-memory edge record (src, dst, data): 16 bytes, so a
/// cache line covers 4 edges (vs. 16 for Gemini's compact 4-byte CSR
/// entries) -- one reason PowerGraph moves fewer useful bytes per line.
struct EdgeRec {
  std::uint32_t src, dst;
  double data;
};
static_assert(sizeof(EdgeRec) == 16);

/// Vertex record touched by every gather (data + num_out_edges + meta).
struct VertexRec {
  double data;
  std::uint32_t num_out_edges;
  std::uint32_t flags;
  double cache[2];
};
static_assert(sizeof(VertexRec) == 32);

class PowerGraphBase : public WorkloadBase {
 protected:
  PowerGraphBase(std::string name, const AppParams& p)
      : WorkloadBase(std::move(name), p, sim::ThreadAttr{0.7, 8}),
        g_(graph::rmat_cached(graph::spec_for(p.size))),
        in_off_(space(), g_->in_offsets()),
        in_src_(space(), g_->in_sources()),
        out_off_(space(), std::span{g_->out_offsets}),
        out_tgt_(space(), std::span{g_->out_targets}),
        in_edges_(space(), g_->m),
        vrec_(space(), g_->n) {}

  static constexpr std::uint16_t kPcOffsets = 201;
  static constexpr std::uint16_t kPcEdgeRec = 202;
  static constexpr std::uint16_t kPcVertexRec = 203;
  static constexpr std::uint16_t kPcState = 204;
  static constexpr std::uint16_t kPcFrontier = 205;

  std::shared_ptr<const Graph> g_;
  SimView<std::uint64_t> in_off_;
  SimView<std::uint32_t> in_src_;
  SimView<std::uint64_t> out_off_;
  SimView<std::uint32_t> out_tgt_;
  GhostArray<EdgeRec> in_edges_;  ///< engine edge storage, in-edge order
  GhostArray<VertexRec> vrec_;    ///< per-vertex engine record
};

// =====================================================================
// P-PR: GAS PageRank; gather is pagerank.c L63-66 (Fig. 10, Table IV)
// =====================================================================
class PPageRank final : public PowerGraphBase {
 public:
  explicit PPageRank(const AppParams& p)
      : PowerGraphBase("P-PR", p),
        iters_(p.size == SizeClass::Tiny ? 2 : 2),
        scaled_(space(), g_->n, 0.0),
        acc_(space(), g_->n, 0.0),
        rank_(space(), g_->n, 0.0),
        rgn_gather_(region_id("P-PR/gather(pagerank.c:63-66)")),
        rgn_apply_(region_id("P-PR/apply")),
        rgn_scatter_(region_id("P-PR/scatter")) {}

  const SimArray<double>& ranks() const { return rank_; }

  std::string verify() const override {
    const auto ref = graph::host_pagerank(*g_, iters_);
    for (std::uint32_t v = 0; v < g_->n; ++v)
      if (std::abs(rank_[v] - ref[v]) > 1e-9 * (1.0 + std::abs(ref[v])))
        return "P-PR: rank[" + std::to_string(v) + "] diverges from reference";
    return {};
  }

 protected:
  void on_run_start() override {
    const double init = 1.0 / g_->n;
    for (std::uint32_t v = 0; v < g_->n; ++v) {
      rank_[v] = init;
      const auto deg = g_->out_degree(v);
      scaled_[v] = deg > 0 ? init / deg : 0.0;
      acc_[v] = 0.0;
    }
  }

  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const Graph& g = *g_;
    const auto [vbeg, vend] =
        edge_balanced_range(g.in_offsets(), tid, threads());
    const double base = 0.15 / g.n;
    for (std::uint32_t iter = 0; iter < iters_; ++iter) {
      // ---- gather: per owned dst, fold over in-edges --------------
      // return (edge.source().data() / edge.source().num_out_edges());
      co_await ctx.region(rgn_gather_);
      LineTracker off_line, edge_line;
      for (std::uint32_t dst = vbeg; dst < vend; ++dst) {
        if (off_line.touch(in_off_.addr_of(dst)))
          co_await ctx.load(in_off_.addr_of(dst), kPcOffsets);
        const std::uint64_t beg = in_off_[dst];
        const std::uint64_t end = in_off_[dst + 1];
        double sum = 0.0;
        for (std::uint64_t k = beg; k < end; ++k) {
          if (edge_line.touch(in_edges_.addr_of(k)))
            co_await ctx.load(in_edges_.addr_of(k), kPcEdgeRec);
          const std::uint32_t src = in_src_[k];
          // The vertex-program indirection: edge.source() -> record.
          co_await ctx.load(vrec_.addr_of(src), kPcVertexRec);
          sum += scaled_[src];
          // Vertex-program invocation + FP divide overhead per edge.
          co_await ctx.compute(6);
        }
        acc_[dst] = sum;
        co_await ctx.store(acc_.addr_of(dst), kPcState);
      }
      co_await ctx.barrier();

      // ---- apply: rank update on owned vertices --------------------
      co_await ctx.region(rgn_apply_);
      constexpr std::uint32_t kBlock = 8;
      for (std::uint32_t v0 = vbeg; v0 < vend; v0 += kBlock) {
        const std::uint32_t v1 = std::min(v0 + kBlock, vend);
        co_await ctx.load(acc_.addr_of(v0), kPcState);
        for (std::uint32_t v = v0; v < v1; ++v) {
          rank_[v] = base + 0.85 * acc_[v];
          const auto deg = g.out_degree(v);
          scaled_[v] = deg > 0 ? rank_[v] / deg : 0.0;
        }
        co_await ctx.compute(10 * (v1 - v0));  // vertex-program apply()
        co_await ctx.store(rank_.addr_of(v0), kPcState);
        co_await ctx.store(scaled_.addr_of(v0), kPcState);
        co_await ctx.store(vrec_.addr_of(v0), kPcVertexRec);
      }
      co_await ctx.barrier();

      // ---- scatter: reactivate out-neighbours (all-active PR) -------
      co_await ctx.region(rgn_scatter_);
      LineTracker scat_line;
      for (std::uint32_t v = vbeg; v < vend; ++v) {
        if (scat_line.touch(out_off_.addr_of(v)))
          co_await ctx.load(out_off_.addr_of(v), kPcOffsets);
        co_await ctx.compute(3);
      }
      co_await ctx.barrier();
    }
  }

 private:
  std::uint32_t iters_;
  SimArray<double> scaled_, acc_, rank_;
  std::uint32_t rgn_gather_, rgn_apply_, rgn_scatter_;
};

// =====================================================================
// P-CC: GAS label propagation with active supersteps
// =====================================================================
class PConnectedComponents final : public PowerGraphBase {
 public:
  explicit PConnectedComponents(const AppParams& p)
      : PowerGraphBase("P-CC", p),
        labels_(space(), g_->n, Cell<std::uint32_t>{}),
        active_(space(), g_->n, std::uint8_t{0}),
        next_active_(space(), g_->n, std::uint8_t{0}),
        rgn_gather_(region_id("P-CC/gather")) {}

  const SimArray<Cell<std::uint32_t>>& labels() const { return labels_; }

  std::string verify() const override {
    const auto comp = graph::host_components(*g_);
    for (std::uint32_t v = 0; v < g_->n; ++v)
      if (labels_[v].v != comp[v])
        return "P-CC: label[" + std::to_string(v) +
               "] != union-find representative";
    return {};
  }

 protected:
  void on_run_start() override {
    changed_.reset();
    for (std::uint32_t v = 0; v < g_->n; ++v) {
      labels_[v].v = v;
      active_[v] = 1;
      next_active_[v] = 0;
    }
  }

  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const Graph& g = *g_;
    const auto [vbeg, vend] =
        edge_balanced_range(g.in_offsets(), tid, threads());
    constexpr std::uint64_t kMaxEpochs = 64;
    co_await ctx.region(rgn_gather_);
    for (std::uint64_t epoch = 0; epoch < kMaxEpochs; ++epoch) {
      auto& cur = (epoch & 1) ? next_active_ : active_;
      auto& nxt = (epoch & 1) ? active_ : next_active_;
      LineTracker flag_line, off_line, edge_line;
      for (std::uint32_t dst = vbeg; dst < vend; ++dst) {
        if (flag_line.touch(cur.addr_of(dst)))
          co_await ctx.load(cur.addr_of(dst), kPcFrontier);
        if (!cur[dst]) continue;
        cur[dst] = 0;
        if (off_line.touch(in_off_.addr_of(dst)))
          co_await ctx.load(in_off_.addr_of(dst), kPcOffsets);
        const std::uint64_t beg = in_off_[dst];
        const std::uint64_t end = in_off_[dst + 1];
        co_await ctx.load(labels_.addr_of(dst), kPcState);
        std::uint32_t lab = labels_[dst].v;
        for (std::uint64_t k = beg; k < end; ++k) {
          if (edge_line.touch(in_edges_.addr_of(k)))
            co_await ctx.load(in_edges_.addr_of(k), kPcEdgeRec);
          const std::uint32_t src = in_src_[k];
          co_await ctx.load(labels_.addr_of(src), kPcVertexRec);
          lab = std::min(lab, labels_[src].v);
          co_await ctx.compute(4);  // vertex-program gather per edge
        }
        if (lab < labels_[dst].v) {
          labels_[dst].v = lab;
          co_await ctx.store(labels_.addr_of(dst), kPcState);
          // Scatter: wake out-neighbours whose label may now improve.
          LineTracker so_line, st_line;
          const std::uint64_t obeg = g.out_offsets[dst];
          const std::uint64_t oend = g.out_offsets[dst + 1];
          if (so_line.touch(out_off_.addr_of(dst)))
            co_await ctx.load(out_off_.addr_of(dst), kPcOffsets);
          for (std::uint64_t k = obeg; k < oend; ++k) {
            if (st_line.touch(out_tgt_.addr_of(k)))
              co_await ctx.load(out_tgt_.addr_of(k), kPcEdgeRec);
            const std::uint32_t w = g.out_targets[k];
            if (!nxt[w]) {
              nxt[w] = 1;
              co_await ctx.store(nxt.addr_of(w), kPcFrontier);
              changed_.add(epoch);
            }
          }
        }
      }
      co_await ctx.barrier();
      if (changed_.read(epoch) == 0) break;
    }
  }

 private:
  SimArray<Cell<std::uint32_t>> labels_;
  SimArray<std::uint8_t> active_, next_active_;
  graph::ConvergenceFlag changed_;
  std::uint32_t rgn_gather_;
};

// =====================================================================
// P-SSSP: identical-weight SSSP whose serialized bookkeeping caps
// scalability below 2x (the paper's Section IV-A observation)
// =====================================================================
class PSssp final : public PowerGraphBase {
 public:
  explicit PSssp(const AppParams& p)
      : PowerGraphBase("P-SSSP", p),
        dist_(space(), g_->n, std::numeric_limits<std::uint32_t>::max()),
        in_next_(space(), g_->n, std::uint8_t{0}),
        frontier_store_(space(), g_->n, 0u),
        rgn_gather_(region_id("P-SSSP/gather")),
        rgn_serial_(region_id("P-SSSP/serial_apply")) {}

  const SimArray<std::uint32_t>& dist() const { return dist_; }
  std::uint32_t root() const { return g_->max_degree_vertex(); }

  std::string verify() const override {
    const auto ref = graph::host_bfs_levels(*g_, g_->max_degree_vertex());
    for (std::uint32_t v = 0; v < g_->n; ++v) {
      const bool unreachable = ref[v] < 0;
      const bool got_unreachable =
          dist_[v] == std::numeric_limits<std::uint32_t>::max();
      if (unreachable != got_unreachable)
        return "P-SSSP: reachability of " + std::to_string(v) + " differs";
      if (!unreachable && dist_[v] != static_cast<std::uint32_t>(ref[v]))
        return "P-SSSP: dist[" + std::to_string(v) + "] != BFS level";
    }
    return {};
  }

 protected:
  void on_run_start() override {
    dist_.fill(std::numeric_limits<std::uint32_t>::max());
    in_next_.fill(0);
    const std::uint32_t r = g_->max_degree_vertex();
    dist_[r] = 0;
    frontiers_.reset({r});
  }

  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const Graph& g = *g_;
    constexpr std::uint64_t kMaxEpochs = 256;
    for (std::uint64_t epoch = 0; epoch < kMaxEpochs; ++epoch) {
      const auto& frontier = frontiers_.frontier(epoch);
      if (frontier.empty()) break;
      const auto n_frontier = static_cast<std::uint32_t>(frontier.size());
      const auto [fbeg, fend] = static_range(n_frontier, tid, threads());

      co_await ctx.region(rgn_gather_);
      LineTracker frontier_line, off_line, edge_line;
      std::uint64_t edges_seen = 0;
      for (std::uint32_t i = fbeg; i < fend; ++i) {
        if (frontier_line.touch(frontier_store_.addr_of(i)))
          co_await ctx.load(frontier_store_.addr_of(i), kPcFrontier);
        const std::uint32_t u = frontier[i];
        in_next_[u] = 0;
        if (off_line.touch(out_off_.addr_of(u)))
          co_await ctx.load(out_off_.addr_of(u), kPcOffsets);
        const std::uint64_t beg = g.out_offsets[u];
        const std::uint64_t end = g.out_offsets[u + 1];
        const std::uint32_t du = dist_[u];
        for (std::uint64_t k = beg; k < end; ++k) {
          if (edge_line.touch(in_edges_.addr_of(k)))
            co_await ctx.load(in_edges_.addr_of(k), kPcEdgeRec);
          const std::uint32_t v = g.out_targets[k];
          co_await ctx.load(dist_.addr_of(v), kPcVertexRec);
          co_await ctx.compute(4);
          ++edges_seen;
          if (du + 1 < dist_[v]) {  // every edge weight is 1
            dist_[v] = du + 1;
            co_await ctx.store(dist_.addr_of(v), kPcVertexRec);
            if (!in_next_[v]) {
              in_next_[v] = 1;
              co_await ctx.store(in_next_.addr_of(v), kPcFrontier);
              frontiers_.push(epoch + 1, v);
            }
          }
        }
      }
      edge_work_.add(epoch, edges_seen);
      co_await ctx.barrier();

      // Serialized apply/commit on thread 0: with identical weights the
      // engine revisits and re-commits the whole frontier centrally --
      // everyone else waits. This is the Amdahl fraction behind the
      // paper's <2x speedup.
      co_await ctx.region(rgn_serial_);
      if (tid == 0) {
        const std::uint64_t total_edges = edge_work_.read(epoch);
        co_await ctx.compute(9 * total_edges);
      }
      co_await ctx.barrier();
    }
  }

 private:
  SimArray<std::uint32_t> dist_;
  SimArray<std::uint8_t> in_next_;
  SimArray<std::uint32_t> frontier_store_;
  FrontierSet frontiers_;
  graph::ConvergenceFlag edge_work_;
  std::uint32_t rgn_gather_, rgn_serial_;
};

}  // namespace

void register_powergraph(Registry& r) {
  r.add({"P-PR", "PowerGraph", "GAS PageRank (gather = pagerank.c L63-66)",
         false,
         [](const AppParams& p) { return std::make_unique<PPageRank>(p); }});
  r.add({"P-CC", "PowerGraph", "GAS label-propagation components", false,
         [](const AppParams& p) {
           return std::make_unique<PConnectedComponents>(p);
         }});
  r.add({"P-SSSP", "PowerGraph",
         "identical-weight SSSP with serialized apply (low scalability)",
         false,
         [](const AppParams& p) { return std::make_unique<PSssp>(p); }});
}

}  // namespace coperf::wl
