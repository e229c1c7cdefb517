// The R-MAT generator's executable specification: the serial builder
// that make_rmat replaced, its arithmetic kept verbatim. One generator
// draws every edge in order, two draws per level of the quadrant
// descent, and the edge list holds each symmetric edge twice. It
// builds the in-CSR even when it equals the out-CSR. The suite pins
// make_rmat to it: all five arrays of the graph equal, bit for bit, at
// any lane count.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "wl/graph/csr.hpp"

namespace coperf::wl::graph::reference {

/// The serial builder's graph: every array stored, symmetric or not.
struct Graph {
  std::uint32_t n = 0;
  std::uint64_t m = 0;
  std::vector<std::uint64_t> out_offsets;
  std::vector<std::uint32_t> out_targets;
  std::vector<std::uint64_t> in_offsets;
  std::vector<std::uint32_t> in_sources;
  std::vector<float> weights;
};

/// One R-MAT edge: recursively descend the adjacency matrix quadrants.
inline std::pair<std::uint32_t, std::uint32_t> rmat_edge(util::SplitMix64& rng,
                                                         std::uint32_t scale) {
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
    src <<= 1;
    dst <<= 1;
    if (r < a) {
      // top-left: nothing
    } else if (r < a + b) {
      dst |= 1;
    } else if (r < a + b + c) {
      src |= 1;
    } else {
      src |= 1;
      dst |= 1;
    }
  }
  return {src, dst};
}

inline void build_csr(
    std::uint32_t n,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::vector<std::uint64_t>& offsets, std::vector<std::uint32_t>& adjacency,
    bool by_source) {
  offsets.assign(n + 1, 0);
  for (const auto& [s, d] : edges) ++offsets[(by_source ? s : d) + 1];
  for (std::uint32_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  adjacency.resize(edges.size());
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [s, d] : edges) {
    const std::uint32_t key = by_source ? s : d;
    adjacency[cursor[key]++] = by_source ? d : s;
  }
}

/// Valid for scales in [1, 31] only, the range make_rmat accepts.
inline Graph make_rmat(const GraphSpec& spec) {
  util::SplitMix64 rng{util::seed_combine(spec.seed, spec.scale)};
  const std::uint32_t n = 1u << spec.scale;
  const std::uint64_t m_base = std::uint64_t{n} * spec.avg_degree /
                               (spec.symmetric ? 2 : 1);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(spec.symmetric ? 2 * m_base : m_base);
  for (std::uint64_t e = 0; e < m_base; ++e) {
    auto [s, d] = rmat_edge(rng, spec.scale);
    if (s == d) d = (d + 1) & (n - 1);  // drop self loops
    edges.emplace_back(s, d);
    if (spec.symmetric) edges.emplace_back(d, s);
  }

  Graph g;
  g.n = n;
  g.m = edges.size();
  build_csr(n, edges, g.out_offsets, g.out_targets, /*by_source=*/true);
  build_csr(n, edges, g.in_offsets, g.in_sources, /*by_source=*/false);

  g.weights.resize(g.m);
  util::SplitMix64 wrng{util::seed_combine(spec.seed, 0x57ull)};
  for (auto& w : g.weights)
    w = 1.0f + static_cast<float>(wrng.below(16));
  return g;
}

}  // namespace coperf::wl::graph::reference
