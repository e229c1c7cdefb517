// GeminiGraph workload models (Table I: G-PR, G-BFS, G-BC, G-SSSP, G-CC).
//
// Gemini's performance signature, per the paper: chunk-based
// thread-level work stealing, good locality from chunked partitioning,
// high bandwidth demand (~17-18 GB/s at 4 threads), irregular gathers
// that do not benefit from prefetchers, and strong thread scalability.
// Each model below executes the real algorithm over a real R-MAT graph
// (ranks converge, labels form components, distances match Dijkstra --
// see tests/wl_graph_test.cpp) while emitting its native memory trace.
#include <algorithm>
#include <cmath>
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

using graph::EpochCursor;
using graph::FrontierSet;
using graph::Graph;
using graph::GraphSpec;
using sim::Addr;
using sim::Dep;

/// Common plumbing: shared graph, simulated views of the adjacency
/// arrays, and the work-stealing cursor.
class GeminiBase : public WorkloadBase {
 protected:
  GeminiBase(std::string name, const AppParams& p)
      : WorkloadBase(std::move(name), p, sim::ThreadAttr{0.55, 10}),
        g_(graph::rmat_cached(graph::spec_for(p.size))),
        in_off_(space(), g_->in_offsets()),
        in_src_(space(), g_->in_sources()),
        out_off_(space(), std::span{g_->out_offsets}),
        out_tgt_(space(), std::span{g_->out_targets}),
        weights_(space(), std::span{g_->weights}) {
    cursor_.set_chunk(256);
  }

  // Synthetic PC ids (per load site; feeds the IP prefetcher + VTune model).
  static constexpr std::uint16_t kPcOffsets = 101;
  static constexpr std::uint16_t kPcEdges = 102;
  static constexpr std::uint16_t kPcGather = 103;
  static constexpr std::uint16_t kPcState = 104;
  static constexpr std::uint16_t kPcFrontier = 105;
  static constexpr std::uint16_t kPcWeights = 106;

  std::shared_ptr<const Graph> g_;
  SimView<std::uint64_t> in_off_;
  SimView<std::uint32_t> in_src_;
  SimView<std::uint64_t> out_off_;
  SimView<std::uint32_t> out_tgt_;
  SimView<float> weights_;
  EpochCursor cursor_;
};

// =====================================================================
// G-PR: pull-mode PageRank (the paper's Fig. 9 kernel, pagerank.c L63-70)
// =====================================================================
class GPageRank final : public GeminiBase {
 public:
  explicit GPageRank(const AppParams& p)
      : GeminiBase("G-PR", p),
        iters_(p.size == SizeClass::Tiny ? 2 : 3),
        scaled_(space(), g_->n, Cell<double>{}),
        acc_(space(), g_->n, 0.0),
        rank_(space(), g_->n, 0.0),
        rgn_edge_(region_id("G-PR/edge_loop(L65)")),
        rgn_apply_(region_id("G-PR/apply")) {}

  /// Final PageRank values (verification hook).
  const SimArray<double>& ranks() const { return rank_; }

  std::string verify() const override {
    const auto ref = graph::host_pagerank(*g_, iters_);
    double sum = 0.0;
    for (std::uint32_t v = 0; v < g_->n; ++v) {
      if (std::abs(rank_[v] - ref[v]) > 1e-9 * (1.0 + std::abs(ref[v])))
        return "G-PR: rank[" + std::to_string(v) + "] diverges from reference";
      sum += rank_[v];
    }
    if (sum <= 0.1 || sum > 1.0 + 1e-6)
      return "G-PR: rank mass " + std::to_string(sum) + " out of range";
    return {};
  }

 protected:
  void on_run_start() override {
    cursor_.set_total(g_->n);
    cursor_.reset();
    const double init = 1.0 / g_->n;
    for (std::uint32_t v = 0; v < g_->n; ++v) {
      rank_[v] = init;
      const auto deg = g_->out_degree(v);
      scaled_[v].v = deg > 0 ? init / deg : 0.0;
      acc_[v] = 0.0;
    }
  }

  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    (void)tid;
    const Graph& g = *g_;
    const double base = 0.15 / g.n;
    for (std::uint32_t iter = 0; iter < iters_; ++iter) {
      const std::uint64_t epoch = 2ull * iter;
      // ---- edge phase: acc[dst] = sum over in-edges of scaled[src] ----
      co_await ctx.region(rgn_edge_);
      LineTracker off_line, edge_line;
      while (auto chunk = cursor_.next(epoch)) {
        for (std::uint32_t dst = chunk->first; dst < chunk->second; ++dst) {
          if (off_line.touch(in_off_.addr_of(dst)))
            co_await ctx.load(in_off_.addr_of(dst), kPcOffsets);
          const std::uint64_t beg = in_off_[dst];
          const std::uint64_t end = in_off_[dst + 1];
          double sum = 0.0;
          for (std::uint64_t k = beg; k < end; ++k) {
            if (edge_line.touch(in_src_.addr_of(k)))
              co_await ctx.load(in_src_.addr_of(k), kPcEdges);
            const std::uint32_t src = in_src_[k];
            co_await ctx.load(scaled_.addr_of(src), kPcGather);
            sum += scaled_[src].v;
          }
          acc_[dst] = sum;
          // FMA + emit() bookkeeping per in-edge (Gemini's sparse_slot
          // signal path costs several uops per edge).
          co_await ctx.compute(2 + 2 * static_cast<std::uint32_t>(end - beg));
          co_await ctx.store(acc_.addr_of(dst), kPcState);
        }
      }
      co_await ctx.barrier();

      // ---- apply phase: rank = base + d*acc; rescale by out-degree ----
      co_await ctx.region(rgn_apply_);
      constexpr std::uint32_t kBlock = 8;  // one cache line of doubles
      while (auto chunk = cursor_.next(epoch + 1)) {
        for (std::uint32_t v0 = chunk->first; v0 < chunk->second; v0 += kBlock) {
          const std::uint32_t v1 = std::min(v0 + kBlock, chunk->second);
          co_await ctx.load(acc_.addr_of(v0), kPcState);
          co_await ctx.load(out_off_.addr_of(v0), kPcOffsets);
          for (std::uint32_t v = v0; v < v1; ++v) {
            rank_[v] = base + 0.85 * acc_[v];
            const auto deg = g.out_degree(v);
            scaled_[v].v = deg > 0 ? rank_[v] / deg : 0.0;
          }
          co_await ctx.compute(3 * (v1 - v0));
          co_await ctx.store(rank_.addr_of(v0), kPcState);
          for (std::uint32_t v = v0; v < v1; v += 2)  // 2 cells per line
            co_await ctx.store(scaled_.addr_of(v), kPcState);
        }
      }
      co_await ctx.barrier();
    }
  }

 private:
  std::uint32_t iters_;
  SimArray<Cell<double>> scaled_;
  SimArray<double> acc_, rank_;
  std::uint32_t rgn_edge_, rgn_apply_;
};

// =====================================================================
// G-CC: push-mode label-propagation connected components (cc.cpp L64)
// =====================================================================
class GConnectedComponents final : public GeminiBase {
 public:
  explicit GConnectedComponents(const AppParams& p)
      : GeminiBase("G-CC", p),
        labels_(space(), g_->n, Cell<std::uint32_t>{}),
        active_(space(), g_->n, std::uint8_t{0}),
        next_active_(space(), g_->n, std::uint8_t{0}),
        rgn_edge_(region_id("G-CC/edge_loop(L64)")) {}

  const SimArray<Cell<std::uint32_t>>& labels() const { return labels_; }

  std::string verify() const override {
    const auto comp = graph::host_components(*g_);
    for (std::uint32_t v = 0; v < g_->n; ++v)
      if (labels_[v].v != comp[v])
        return "G-CC: label[" + std::to_string(v) +
               "] != union-find representative";
    return {};
  }

 protected:
  void on_run_start() override {
    cursor_.set_total(g_->n);
    cursor_.reset();
    changed_.reset();
    for (std::uint32_t v = 0; v < g_->n; ++v) {
      labels_[v].v = v;
      active_[v] = 1;
      next_active_[v] = 0;
    }
  }

  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    (void)tid;
    const Graph& g = *g_;
    constexpr std::uint64_t kMaxEpochs = 64;
    co_await ctx.region(rgn_edge_);
    for (std::uint64_t epoch = 0; epoch < kMaxEpochs; ++epoch) {
      auto& cur = (epoch & 1) ? next_active_ : active_;
      auto& nxt = (epoch & 1) ? active_ : next_active_;
      LineTracker flag_line, off_line, edge_line;
      while (auto chunk = cursor_.next(epoch)) {
        for (std::uint32_t src = chunk->first; src < chunk->second; ++src) {
          if (flag_line.touch(cur.addr_of(src)))
            co_await ctx.load(cur.addr_of(src), kPcFrontier);
          if (!cur[src]) continue;
          cur[src] = 0;  // consume activation
          if (off_line.touch(out_off_.addr_of(src)))
            co_await ctx.load(out_off_.addr_of(src), kPcOffsets);
          const std::uint64_t beg = g.out_offsets[src];
          const std::uint64_t end = g.out_offsets[src + 1];
          co_await ctx.load(labels_.addr_of(src), kPcState);
          const std::uint32_t lab = labels_[src].v;
          for (std::uint64_t k = beg; k < end; ++k) {
            if (edge_line.touch(out_tgt_.addr_of(k)))
              co_await ctx.load(out_tgt_.addr_of(k), kPcEdges);
            const std::uint32_t dst = g.out_targets[k];
            co_await ctx.load(labels_.addr_of(dst), kPcGather);
            if (lab < labels_[dst].v) {
              labels_[dst].v = lab;
              co_await ctx.store(labels_.addr_of(dst), kPcGather);
              if (!nxt[dst]) {
                nxt[dst] = 1;
                co_await ctx.store(nxt.addr_of(dst), kPcFrontier);
                changed_.add(epoch);
              }
            }
          }
          co_await ctx.compute(2 + 2 * static_cast<std::uint32_t>(end - beg));
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
  std::uint32_t rgn_edge_;
};

// =====================================================================
// G-BFS: frontier breadth-first search (bfs.cpp L53)
// =====================================================================
class GBfs final : public GeminiBase {
 public:
  explicit GBfs(const AppParams& p)
      : GeminiBase("G-BFS", p),
        visited_(space(), g_->n, std::uint8_t{0}),
        frontier_store_(space(), g_->n, 0u),
        rgn_expand_(region_id("G-BFS/expand(L53)")) {}

  std::uint64_t visited_count() const {
    std::uint64_t c = 0;
    for (std::uint32_t v = 0; v < g_->n; ++v) c += visited_[v] != 0;
    return c;
  }

  std::string verify() const override {
    const auto ref = graph::host_bfs_levels(*g_, g_->max_degree_vertex());
    for (std::uint32_t v = 0; v < g_->n; ++v) {
      const bool reachable = ref[v] >= 0;
      if (reachable != (visited_[v] != 0))
        return "G-BFS: visited[" + std::to_string(v) +
               "] disagrees with host BFS";
    }
    return {};
  }

 protected:
  void on_run_start() override {
    cursor_.reset();
    visited_.fill(0);
    const std::uint32_t root = g_->max_degree_vertex();
    visited_[root] = 1;
    frontiers_.reset({root});
  }

  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    (void)tid;
    const Graph& g = *g_;
    constexpr std::uint64_t kMaxEpochs = 256;
    co_await ctx.region(rgn_expand_);
    for (std::uint64_t epoch = 0; epoch < kMaxEpochs; ++epoch) {
      const auto& frontier = frontiers_.frontier(epoch);
      if (frontier.empty()) break;
      cursor_.set_total(static_cast<std::uint32_t>(frontier.size()));
      LineTracker frontier_line, off_line, edge_line;
      while (auto chunk = cursor_.next(epoch)) {
        for (std::uint32_t i = chunk->first; i < chunk->second; ++i) {
          if (frontier_line.touch(frontier_store_.addr_of(i)))
            co_await ctx.load(frontier_store_.addr_of(i), kPcFrontier);
          const std::uint32_t u = frontier[i];
          if (off_line.touch(out_off_.addr_of(u)))
            co_await ctx.load(out_off_.addr_of(u), kPcOffsets);
          const std::uint64_t beg = g.out_offsets[u];
          const std::uint64_t end = g.out_offsets[u + 1];
          for (std::uint64_t k = beg; k < end; ++k) {
            if (edge_line.touch(out_tgt_.addr_of(k)))
              co_await ctx.load(out_tgt_.addr_of(k), kPcEdges);
            const std::uint32_t v = g.out_targets[k];
            co_await ctx.load(visited_.addr_of(v), kPcGather);
            if (!visited_[v]) {
              visited_[v] = 1;
              co_await ctx.store(visited_.addr_of(v), kPcGather);
              frontiers_.push(epoch + 1, v);
            }
          }
          co_await ctx.compute(2 + static_cast<std::uint32_t>(end - beg));
        }
      }
      co_await ctx.barrier();
    }
  }

 private:
  SimArray<std::uint8_t> visited_;
  /// Simulated backing for frontier reads (content lives in frontiers_).
  SimArray<std::uint32_t> frontier_store_;
  FrontierSet frontiers_;
  std::uint32_t rgn_expand_;
};

// =====================================================================
// G-BC: Brandes betweenness centrality, one source (bc.cpp L76)
// =====================================================================
class GBetweenness final : public GeminiBase {
 public:
  explicit GBetweenness(const AppParams& p)
      : GeminiBase("G-BC", p),
        level_(space(), g_->n, -1),
        sigma_(space(), g_->n, 0.0),
        delta_(space(), g_->n, 0.0),
        frontier_store_(space(), g_->n, 0u),
        rgn_fwd_(region_id("G-BC/forward")),
        rgn_bwd_(region_id("G-BC/backward(L76)")) {}

  const SimArray<double>& deltas() const { return delta_; }
  const SimArray<std::int32_t>& levels() const { return level_; }

  std::string verify() const override {
    const auto ref = graph::host_bfs_levels(*g_, g_->max_degree_vertex());
    for (std::uint32_t v = 0; v < g_->n; ++v) {
      if (ref[v] != static_cast<std::int64_t>(level_[v]))
        return "G-BC: level[" + std::to_string(v) + "] != host BFS level";
      if (!(delta_[v] >= 0.0) || !std::isfinite(delta_[v]))
        return "G-BC: delta[" + std::to_string(v) + "] not finite/non-negative";
    }
    return {};
  }

 protected:
  void on_run_start() override {
    cursor_.reset();
    level_.fill(-1);
    sigma_.fill(0.0);
    delta_.fill(0.0);
    const std::uint32_t root = g_->max_degree_vertex();
    level_[root] = 0;
    sigma_[root] = 1.0;
    frontiers_.reset({root});
    num_levels_ = 0;
  }

  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    (void)tid;
    const Graph& g = *g_;
    constexpr std::uint64_t kMaxLevels = 256;

    // ---- forward sweep: BFS levels + shortest-path counts ----
    co_await ctx.region(rgn_fwd_);
    std::uint64_t lvl = 0;
    for (; lvl < kMaxLevels; ++lvl) {
      const auto& frontier = frontiers_.frontier(lvl);
      if (frontier.empty()) break;
      cursor_.set_total(static_cast<std::uint32_t>(frontier.size()));
      LineTracker frontier_line, off_line, edge_line;
      while (auto chunk = cursor_.next(lvl)) {
        for (std::uint32_t i = chunk->first; i < chunk->second; ++i) {
          if (frontier_line.touch(frontier_store_.addr_of(i)))
            co_await ctx.load(frontier_store_.addr_of(i), kPcFrontier);
          const std::uint32_t u = frontier[i];
          if (off_line.touch(out_off_.addr_of(u)))
            co_await ctx.load(out_off_.addr_of(u), kPcOffsets);
          const std::uint64_t beg = g.out_offsets[u];
          const std::uint64_t end = g.out_offsets[u + 1];
          for (std::uint64_t k = beg; k < end; ++k) {
            if (edge_line.touch(out_tgt_.addr_of(k)))
              co_await ctx.load(out_tgt_.addr_of(k), kPcEdges);
            const std::uint32_t v = g.out_targets[k];
            co_await ctx.load(level_.addr_of(v), kPcGather);
            if (level_[v] < 0) {
              level_[v] = static_cast<std::int32_t>(lvl + 1);
              sigma_[v] = sigma_[u];
              co_await ctx.store(level_.addr_of(v), kPcGather);
              co_await ctx.store(sigma_.addr_of(v), kPcState);
              frontiers_.push(lvl + 1, v);
            } else if (level_[v] == static_cast<std::int32_t>(lvl + 1)) {
              sigma_[v] += sigma_[u];
              co_await ctx.store(sigma_.addr_of(v), kPcState);
            }
          }
          co_await ctx.compute(2 + static_cast<std::uint32_t>(end - beg));
        }
      }
      co_await ctx.barrier();
    }
    num_levels_ = lvl;  // every thread computes the same value

    // ---- backward sweep: dependency accumulation ----
    co_await ctx.region(rgn_bwd_);
    for (std::uint64_t bi = 0; bi < num_levels_; ++bi) {
      const std::uint64_t l = num_levels_ - 1 - bi;  // levels high -> low
      const auto& frontier = frontiers_.frontier(l);
      cursor_.set_total(static_cast<std::uint32_t>(frontier.size()));
      LineTracker frontier_line, off_line, edge_line;
      while (auto chunk = cursor_.next(kMaxLevels + bi)) {
        for (std::uint32_t i = chunk->first; i < chunk->second; ++i) {
          if (frontier_line.touch(frontier_store_.addr_of(i)))
            co_await ctx.load(frontier_store_.addr_of(i), kPcFrontier);
          const std::uint32_t u = frontier[i];
          if (off_line.touch(out_off_.addr_of(u)))
            co_await ctx.load(out_off_.addr_of(u), kPcOffsets);
          const std::uint64_t beg = g.out_offsets[u];
          const std::uint64_t end = g.out_offsets[u + 1];
          double acc = 0.0;
          for (std::uint64_t k = beg; k < end; ++k) {
            if (edge_line.touch(out_tgt_.addr_of(k)))
              co_await ctx.load(out_tgt_.addr_of(k), kPcEdges);
            const std::uint32_t v = g.out_targets[k];
            co_await ctx.load(level_.addr_of(v), kPcGather);
            if (level_[v] == static_cast<std::int32_t>(l + 1) && sigma_[v] > 0) {
              co_await ctx.load(sigma_.addr_of(v), kPcState);
              co_await ctx.load(delta_.addr_of(v), kPcState);
              acc += sigma_[u] / sigma_[v] * (1.0 + delta_[v]);
            }
          }
          delta_[u] += acc;
          co_await ctx.compute(4 + 2 * static_cast<std::uint32_t>(end - beg));
          co_await ctx.store(delta_.addr_of(u), kPcState);
        }
      }
      co_await ctx.barrier();
    }
  }

 private:
  SimArray<std::int32_t> level_;
  SimArray<double> sigma_, delta_;
  SimArray<std::uint32_t> frontier_store_;
  FrontierSet frontiers_;
  std::uint64_t num_levels_ = 0;
  std::uint32_t rgn_fwd_, rgn_bwd_;
};

// =====================================================================
// G-SSSP: active-set Bellman-Ford with real weights (sssp.cpp L65)
// =====================================================================
class GSssp final : public GeminiBase {
 public:
  explicit GSssp(const AppParams& p)
      : GeminiBase("G-SSSP", p),
        dist_(space(), g_->n,
              Cell<float>{std::numeric_limits<float>::infinity(), {}}),
        in_next_(space(), g_->n, std::uint8_t{0}),
        frontier_store_(space(), g_->n, 0u),
        rgn_relax_(region_id("G-SSSP/relax(L65)")) {}

  const SimArray<Cell<float>>& dist() const { return dist_; }
  std::uint32_t root() const { return g_->max_degree_vertex(); }

  std::string verify() const override {
    const auto ref = graph::host_dijkstra(*g_, g_->max_degree_vertex());
    for (std::uint32_t v = 0; v < g_->n; ++v) {
      const bool ref_inf = std::isinf(ref[v]);
      const bool got_inf = std::isinf(dist_[v].v);
      if (ref_inf != got_inf)
        return "G-SSSP: reachability of " + std::to_string(v) + " differs";
      if (!ref_inf &&
          std::abs(dist_[v].v - ref[v]) > 1e-3 * (1.0 + std::abs(ref[v])))
        return "G-SSSP: dist[" + std::to_string(v) + "]=" +
               std::to_string(dist_[v].v) + " != Dijkstra " +
               std::to_string(ref[v]);
    }
    return {};
  }

 protected:
  void on_run_start() override {
    cursor_.reset();
    dist_.fill(Cell<float>{std::numeric_limits<float>::infinity(), {}});
    in_next_.fill(0);
    const std::uint32_t r = g_->max_degree_vertex();
    dist_[r].v = 0.0f;
    frontiers_.reset({r});
  }

  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    (void)tid;
    const Graph& g = *g_;
    constexpr std::uint64_t kMaxEpochs = 512;
    co_await ctx.region(rgn_relax_);
    for (std::uint64_t epoch = 0; epoch < kMaxEpochs; ++epoch) {
      const auto& frontier = frontiers_.frontier(epoch);
      if (frontier.empty()) break;
      cursor_.set_total(static_cast<std::uint32_t>(frontier.size()));
      LineTracker frontier_line, off_line, edge_line, weight_line;
      while (auto chunk = cursor_.next(epoch)) {
        for (std::uint32_t i = chunk->first; i < chunk->second; ++i) {
          if (frontier_line.touch(frontier_store_.addr_of(i)))
            co_await ctx.load(frontier_store_.addr_of(i), kPcFrontier);
          const std::uint32_t u = frontier[i];
          in_next_[u] = 0;
          if (off_line.touch(out_off_.addr_of(u)))
            co_await ctx.load(out_off_.addr_of(u), kPcOffsets);
          const std::uint64_t beg = g.out_offsets[u];
          const std::uint64_t end = g.out_offsets[u + 1];
          co_await ctx.load(dist_.addr_of(u), kPcState);
          const float du = dist_[u].v;
          for (std::uint64_t k = beg; k < end; ++k) {
            if (edge_line.touch(out_tgt_.addr_of(k)))
              co_await ctx.load(out_tgt_.addr_of(k), kPcEdges);
            if (weight_line.touch(weights_.addr_of(k)))
              co_await ctx.load(weights_.addr_of(k), kPcWeights);
            const std::uint32_t v = g.out_targets[k];
            const float cand = du + g.weights[k];
            co_await ctx.load(dist_.addr_of(v), kPcGather);
            if (cand < dist_[v].v) {
              dist_[v].v = cand;
              co_await ctx.store(dist_.addr_of(v), kPcGather);
              if (!in_next_[v]) {
                in_next_[v] = 1;
                co_await ctx.store(in_next_.addr_of(v), kPcFrontier);
                frontiers_.push(epoch + 1, v);
              }
            }
          }
          co_await ctx.compute(3 + 2 * static_cast<std::uint32_t>(end - beg));
        }
      }
      co_await ctx.barrier();
    }
  }

 private:
  SimArray<Cell<float>> dist_;
  SimArray<std::uint8_t> in_next_;
  SimArray<std::uint32_t> frontier_store_;
  FrontierSet frontiers_;
  std::uint32_t rgn_relax_;
};

}  // namespace

void register_gemini(Registry& r) {
  r.add({"G-PR", "GeminiGraph", "pull-mode PageRank over R-MAT", false,
         [](const AppParams& p) { return std::make_unique<GPageRank>(p); }});
  r.add({"G-BFS", "GeminiGraph", "frontier BFS over R-MAT", false,
         [](const AppParams& p) { return std::make_unique<GBfs>(p); }});
  r.add({"G-BC", "GeminiGraph", "Brandes betweenness centrality", false,
         [](const AppParams& p) { return std::make_unique<GBetweenness>(p); }});
  r.add({"G-SSSP", "GeminiGraph", "active-set Bellman-Ford SSSP", false,
         [](const AppParams& p) { return std::make_unique<GSssp>(p); }});
  r.add({"G-CC", "GeminiGraph", "label-propagation connected components", false,
         [](const AppParams& p) {
           return std::make_unique<GConnectedComponents>(p);
         }});
}

}  // namespace coperf::wl
