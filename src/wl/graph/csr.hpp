// Synthetic power-law graph substrate.
//
// The paper runs all graph workloads on the friendster graph (65.6M
// vertices, 1.8B edges). Friendster is not redistributable at this
// scale, so we generate R-MAT graphs (the standard synthetic stand-in
// for skewed social networks) whose degree skew and footprint-to-LLC
// ratio drive the same cache/bandwidth behaviour. Graphs are immutable
// and cached process-wide so the 625-pair sweep does not regenerate
// them.
//
// make_rmat builds on every lane of the process-wide pool and gives
// the same graph at any lane count. All edges come from one SplitMix64
// stream, 2 * scale draws each, cut into fixed chunks of
// kRmatChunkEdges edges. A chunk jumps a copy of the generator to its
// first draw (SplitMix64::advance) and writes its edges in place, so
// which lane claims it changes nothing. The weights are one draw each
// from a second stream, chunked the same way, and fill while the CSRs
// build concurrently. Called from inside a pool worker, it runs
// serially on that worker.
//
// A symmetric graph (every graph the models run) stores one CSR: with
// no self loops, each base edge appends once to each endpoint's list,
// in the same order whether the lists are keyed by source or by
// destination, so its in-CSR is its out-CSR. Graph::in_offsets() and
// in_sources() then alias the out arrays; a directed graph builds and
// keeps its own.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace coperf::wl::graph {

struct Graph {
  std::uint32_t n = 0;  ///< vertex count
  std::uint64_t m = 0;  ///< directed edge count
  /// Every edge also runs the other way, so the in-edges are the
  /// out-edges and directed_in_* stay empty.
  bool symmetric = false;

  // Out-edges (CSR) -- used by push-style phases and scatter.
  std::vector<std::uint64_t> out_offsets;  ///< n+1
  std::vector<std::uint32_t> out_targets;  ///< m

  // A directed graph's in-edges (CSC); empty when symmetric.
  std::vector<std::uint64_t> directed_in_offsets;  ///< n+1
  std::vector<std::uint32_t> directed_in_sources;  ///< m

  /// Edge weights aligned with out_targets (1..16, SSSP).
  std::vector<float> weights;

  /// In-edges (CSC) -- used by pull-style gathers (Gemini PR, GAS
  /// gather): n+1 offsets into m sources, the out arrays themselves
  /// when the graph is symmetric.
  std::span<const std::uint64_t> in_offsets() const {
    return symmetric ? out_offsets : directed_in_offsets;
  }
  std::span<const std::uint32_t> in_sources() const {
    return symmetric ? out_targets : directed_in_sources;
  }

  std::uint32_t out_degree(std::uint32_t v) const {
    return static_cast<std::uint32_t>(out_offsets[v + 1] - out_offsets[v]);
  }

  /// Vertex with the largest out-degree (canonical BFS/SSSP root).
  std::uint32_t max_degree_vertex() const;

  /// Host memory consumed by the adjacency structures (a symmetric
  /// graph's shared CSR counted once).
  std::size_t bytes() const;
};

struct GraphSpec {
  std::uint32_t scale = 16;      ///< n = 2^scale vertices
  std::uint32_t avg_degree = 24; ///< m = n * avg_degree directed edges
  std::uint64_t seed = 42;
  bool symmetric = true;  ///< add reverse edges (connectivity workloads)

  bool operator==(const GraphSpec&) const = default;
};

/// Edges per generation chunk. Not a power of two, so a power-of-two
/// edge count always ends in a partial chunk, and tests at every scale
/// cover the last chunk's clamp.
inline constexpr std::uint64_t kRmatChunkEdges = 10'000;

/// Generates an R-MAT graph (a=0.57 b=0.19 c=0.19 d=0.05). Throws
/// std::invalid_argument unless 1 <= scale <= 31.
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
