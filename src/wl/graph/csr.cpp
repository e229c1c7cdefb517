#include "wl/graph/csr.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace coperf::wl::graph {

std::uint32_t Graph::max_degree_vertex() const {
  std::uint32_t best = 0;
  std::uint32_t best_deg = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (const auto d = out_degree(v); d > best_deg) {
      best_deg = d;
      best = v;
    }
  }
  return best;
}

std::size_t Graph::bytes() const {
  return out_offsets.size() * sizeof(std::uint64_t) +
         out_targets.size() * sizeof(std::uint32_t) +
         directed_in_offsets.size() * sizeof(std::uint64_t) +
         directed_in_sources.size() * sizeof(std::uint32_t) +
         weights.size() * sizeof(float);
}

namespace {

/// A base edge. A symmetric graph stores each once and the CSR builds
/// emit (src, dst) then (dst, src).
struct Edge {
  std::uint32_t src;
  std::uint32_t dst;
};

/// One R-MAT edge: recursively descend the adjacency matrix quadrants,
/// two draws per level. r falls in a random quadrant, so a branch on
/// it cannot be predicted; the quadrant comes from the three
/// comparisons against a, a + b and a + b + c instead (the bounds only
/// grow, so past_ab implies past_a and past_abc past_ab).
Edge rmat_edge(util::SplitMix64& rng, std::uint32_t scale) {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  for (std::uint32_t bit = 0; bit < scale; ++bit) {
    const double r = rng.uniform();
    // a=0.57, b=0.19, c=0.19, d=0.05 with per-level noise to avoid
    // artificial self-similarity (standard Graph500 practice).
    const double noise = 0.05 * (rng.uniform() - 0.5);
    const double a = 0.57 + noise;
    const double b = 0.19;
    const double c = 0.19;
    const std::uint32_t past_a = !(r < a);
    const std::uint32_t past_ab = !(r < a + b);
    const std::uint32_t past_abc = !(r < a + b + c);
    // [a, a+b): dst; [a+b, a+b+c): src; [a+b+c, 1): both.
    src = (src << 1) | past_ab;
    dst = (dst << 1) | (past_a ^ past_ab ^ past_abc);
  }
  return {src, dst};
}

std::uint64_t chunks_of(std::uint64_t items) {
  return (items + kRmatChunkEdges - 1) / kRmatChunkEdges;
}

/// CSR over the directed edges the base edges stand for, keyed by
/// source (out-edges) or by destination (in-edges). `offsets` comes in
/// zeroed with n + 1 entries and `adjacency` sized to the edge count,
/// so a pool worker allocates nothing here.
void build_csr(const std::vector<Edge>& base, bool symmetric, bool by_source,
               std::vector<std::uint64_t>& offsets,
               std::vector<std::uint32_t>& adjacency) {
  const auto each_edge = [&](auto&& visit) {
    for (const Edge& e : base) {
      const std::uint32_t key = by_source ? e.src : e.dst;
      const std::uint32_t other = by_source ? e.dst : e.src;
      visit(key, other);
      if (symmetric) visit(other, key);
    }
  };
  each_edge([&](std::uint32_t key, std::uint32_t) { ++offsets[key + 1]; });
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  // offsets[key] is key's fill cursor, which ends at the next key's
  // start; shifting every entry up one slot restores the starts.
  each_edge([&](std::uint32_t key, std::uint32_t other) {
    adjacency[offsets[key]++] = other;
  });
  std::move_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;
}

}  // namespace

std::shared_ptr<const Graph> make_rmat(const GraphSpec& spec) {
  // Scale 0 leaves a single vertex, whose only edge is a self loop;
  // from 32 on, 1u << scale is undefined.
  if (spec.scale < 1 || spec.scale > 31)
    throw std::invalid_argument{"make_rmat: scale " +
                                std::to_string(spec.scale) +
                                " is outside [1, 31]"};
  const std::uint32_t n = 1u << spec.scale;
  const std::uint64_t m_base = std::uint64_t{n} * spec.avg_degree /
                               (spec.symmetric ? 2 : 1);

  // Chunk c takes the base edges from c * kRmatChunkEdges on, each
  // 2 * scale draws into one stream, so it jumps its generator there.
  const util::SplitMix64 stream{util::seed_combine(spec.seed, spec.scale)};
  std::vector<Edge> edges(m_base);
  util::parallel_for(chunks_of(m_base), 0, [&](std::size_t c) {
    util::SplitMix64 rng = stream;
    rng.advance(c * kRmatChunkEdges * 2 * spec.scale);
    const std::uint64_t end = std::min(m_base, (c + 1) * kRmatChunkEdges);
    for (std::uint64_t e = c * kRmatChunkEdges; e < end; ++e) {
      auto [s, d] = rmat_edge(rng, spec.scale);
      if (s == d) d = (d + 1) & (n - 1);  // drop self loops
      edges[e] = {s, d};
    }
  });

  auto g = std::make_shared<Graph>();
  g->n = n;
  g->m = spec.symmetric ? 2 * m_base : m_base;
  g->symmetric = spec.symmetric;
  g->out_offsets.assign(n + 1, 0);
  g->out_targets.resize(g->m);
  if (!spec.symmetric) {
    g->directed_in_offsets.assign(n + 1, 0);
    g->directed_in_sources.resize(g->m);
  }
  g->weights.resize(g->m);
  // One draw per weight, chunked like the edges. The first tasks build
  // the CSRs -- the out-CSR, then a directed graph's in-CSR -- and the
  // rest fill weight chunks.
  const std::size_t csrs = spec.symmetric ? 1 : 2;
  const util::SplitMix64 wstream{util::seed_combine(spec.seed, 0x57ull)};
  util::parallel_for(csrs + chunks_of(g->m), 0, [&](std::size_t t) {
    if (t < csrs) {
      const bool by_source = t == 0;
      build_csr(edges, spec.symmetric, by_source,
                by_source ? g->out_offsets : g->directed_in_offsets,
                by_source ? g->out_targets : g->directed_in_sources);
      return;
    }
    const std::uint64_t c = t - csrs;
    util::SplitMix64 wrng = wstream;
    wrng.advance(c * kRmatChunkEdges);
    const std::uint64_t end = std::min(g->m, (c + 1) * kRmatChunkEdges);
    for (std::uint64_t k = c * kRmatChunkEdges; k < end; ++k)
      g->weights[k] = 1.0f + static_cast<float>(wrng.below(16));
  });
  return g;
}

std::vector<std::int64_t> host_bfs_levels(const Graph& g, std::uint32_t root) {
  std::vector<std::int64_t> level(g.n, -1);
  std::queue<std::uint32_t> q;
  level[root] = 0;
  q.push(root);
  while (!q.empty()) {
    const std::uint32_t u = q.front();
    q.pop();
    for (std::uint64_t k = g.out_offsets[u]; k < g.out_offsets[u + 1]; ++k) {
      const std::uint32_t v = g.out_targets[k];
      if (level[v] < 0) {
        level[v] = level[u] + 1;
        q.push(v);
      }
    }
  }
  return level;
}

std::vector<double> host_dijkstra(const Graph& g, std::uint32_t root) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.n, kInf);
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[root] = 0.0;
  pq.emplace(0.0, root);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (std::uint64_t k = g.out_offsets[u]; k < g.out_offsets[u + 1]; ++k) {
      const std::uint32_t v = g.out_targets[k];
      const double cand = d + g.weights[k];
      if (cand < dist[v]) {
        dist[v] = cand;
        pq.emplace(cand, v);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> host_components(const Graph& g) {
  std::vector<std::uint32_t> parent(g.n);
  for (std::uint32_t v = 0; v < g.n; ++v) parent[v] = v;
  auto find = [&](std::uint32_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (std::uint32_t u = 0; u < g.n; ++u)
    for (std::uint64_t k = g.out_offsets[u]; k < g.out_offsets[u + 1]; ++k) {
      const std::uint32_t a = find(u);
      const std::uint32_t b = find(g.out_targets[k]);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  std::vector<std::uint32_t> rep(g.n);
  for (std::uint32_t v = 0; v < g.n; ++v) rep[v] = find(v);
  return rep;
}

std::vector<double> host_pagerank(const Graph& g, std::uint32_t iters) {
  const double base = 0.15 / g.n;
  std::vector<double> rank(g.n, 1.0 / g.n);
  std::vector<double> scaled(g.n, 0.0);
  for (std::uint32_t v = 0; v < g.n; ++v) {
    const auto deg = g.out_degree(v);
    scaled[v] = deg > 0 ? rank[v] / deg : 0.0;
  }
  const auto in_offsets = g.in_offsets();
  const auto in_sources = g.in_sources();
  for (std::uint32_t it = 0; it < iters; ++it) {
    for (std::uint32_t dst = 0; dst < g.n; ++dst) {
      double sum = 0.0;
      for (std::uint64_t k = in_offsets[dst]; k < in_offsets[dst + 1]; ++k)
        sum += scaled[in_sources[k]];
      rank[dst] = base + 0.85 * sum;
    }
    for (std::uint32_t v = 0; v < g.n; ++v) {
      const auto deg = g.out_degree(v);
      scaled[v] = deg > 0 ? rank[v] / deg : 0.0;
    }
  }
  return rank;
}

std::shared_ptr<const Graph> rmat_cached(const GraphSpec& spec) {
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, bool>;
  static std::mutex mu;
  static std::map<Key, std::shared_ptr<const Graph>> cache;
  const Key key{spec.scale, spec.avg_degree, spec.seed, spec.symmetric};
  std::lock_guard lock{mu};
  auto& slot = cache[key];
  if (!slot) slot = make_rmat(spec);
  return slot;
}

}  // namespace coperf::wl::graph
