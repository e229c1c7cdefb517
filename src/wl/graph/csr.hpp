// Synthetic power-law graph substrate.
//
// The paper runs all graph workloads on the friendster graph (65.6M
// vertices, 1.8B edges). Friendster is not redistributable at this
// scale, so we generate R-MAT graphs (the standard synthetic stand-in
// for skewed social networks) whose degree skew and footprint-to-LLC
// ratio drive the same cache/bandwidth behaviour. Graphs are immutable
// and cached process-wide so the 625-pair sweep does not regenerate
// them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace coperf::wl::graph {

struct Graph {
  std::uint32_t n = 0;  ///< vertex count
  std::uint64_t m = 0;  ///< directed edge count

  // Out-edges (CSR) -- used by push-style phases and scatter.
  std::vector<std::uint64_t> out_offsets;  ///< n+1
  std::vector<std::uint32_t> out_targets;  ///< m

  // In-edges (CSC) -- used by pull-style gathers (Gemini PR, GAS gather).
  std::vector<std::uint64_t> in_offsets;  ///< n+1
  std::vector<std::uint32_t> in_sources;  ///< m

  /// Edge weights aligned with out_targets (1..16, SSSP).
  std::vector<float> weights;

  std::uint32_t out_degree(std::uint32_t v) const {
    return static_cast<std::uint32_t>(out_offsets[v + 1] - out_offsets[v]);
  }

  /// Vertex with the largest out-degree (canonical BFS/SSSP root).
  std::uint32_t max_degree_vertex() const;

  /// Host memory consumed by the adjacency structures.
  std::size_t bytes() const;
};

struct GraphSpec {
  std::uint32_t scale = 16;      ///< n = 2^scale vertices
  std::uint32_t avg_degree = 24; ///< m = n * avg_degree directed edges
  std::uint64_t seed = 42;
  bool symmetric = true;  ///< add reverse edges (connectivity workloads)

  bool operator==(const GraphSpec&) const = default;
};

/// Generates an R-MAT graph (a=0.57 b=0.19 c=0.19 d=0.05).
std::shared_ptr<const Graph> make_rmat(const GraphSpec& spec);

/// Process-wide cache keyed by spec (thread-safe).
std::shared_ptr<const Graph> rmat_cached(const GraphSpec& spec);

// --- host reference algorithms (verification oracles) -----------------

/// BFS hop distances from `root` over out-edges (-1 == unreachable).
std::vector<std::int64_t> host_bfs_levels(const Graph& g, std::uint32_t root);

/// Dijkstra distances from `root` using g.weights (inf == unreachable).
std::vector<double> host_dijkstra(const Graph& g, std::uint32_t root);

/// Connected-component representative per vertex (union-find over the
/// edge list; assumes a symmetric graph).
std::vector<std::uint32_t> host_components(const Graph& g);

/// Reference pull-PageRank: `iters` iterations, damping 0.85.
std::vector<double> host_pagerank(const Graph& g, std::uint32_t iters);

}  // namespace coperf::wl::graph
