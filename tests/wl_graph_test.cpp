// Graph substrate + graph workload correctness: the models execute the
// real algorithms, so their results must match host oracles (Dijkstra,
// union-find, BFS, reference PageRank) after a simulated run.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <latch>
#include <set>
#include <stdexcept>

#include "rmat_reference.hpp"
#include "sim/machine.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "wl/graph/csr.hpp"
#include "wl/registry.hpp"

namespace coperf::wl {
namespace {

using graph::Graph;
using graph::GraphSpec;

GraphSpec tiny_spec() { return GraphSpec{10, 8, 7, true}; }

TEST(Rmat, GeometryMatchesSpec) {
  const auto g = graph::make_rmat(tiny_spec());
  EXPECT_EQ(g->n, 1u << 10);
  EXPECT_EQ(g->out_offsets.size(), g->n + 1);
  EXPECT_EQ(g->in_offsets().size(), g->n + 1);
  EXPECT_EQ(g->out_targets.size(), g->m);
  EXPECT_EQ(g->in_sources().size(), g->m);
  EXPECT_EQ(g->weights.size(), g->m);
  // symmetric spec: m ~ n * avg_degree
  EXPECT_NEAR(static_cast<double>(g->m), 1024.0 * 8, 1024.0);
}

TEST(Rmat, OffsetsAreMonotoneAndComplete) {
  const auto g = graph::make_rmat(tiny_spec());
  for (std::uint32_t v = 0; v < g->n; ++v) {
    EXPECT_LE(g->out_offsets[v], g->out_offsets[v + 1]);
    EXPECT_LE(g->in_offsets()[v], g->in_offsets()[v + 1]);
  }
  EXPECT_EQ(g->out_offsets[g->n], g->m);
  EXPECT_EQ(g->in_offsets()[g->n], g->m);
}

TEST(Rmat, InAndOutEdgesAreConsistent) {
  for (const bool symmetric : {true, false}) {
    GraphSpec spec = tiny_spec();
    spec.symmetric = symmetric;
    const auto g = graph::make_rmat(spec);
    // Total in-degree == total out-degree, and each directed edge (u,v)
    // in the CSR appears in the CSC.
    std::multiset<std::pair<std::uint32_t, std::uint32_t>> out_edges,
        in_edges;
    for (std::uint32_t u = 0; u < g->n; ++u)
      for (std::uint64_t k = g->out_offsets[u]; k < g->out_offsets[u + 1];
           ++k)
        out_edges.emplace(u, g->out_targets[k]);
    const auto in_offsets = g->in_offsets();
    const auto in_sources = g->in_sources();
    for (std::uint32_t v = 0; v < g->n; ++v)
      for (std::uint64_t k = in_offsets[v]; k < in_offsets[v + 1]; ++k)
        in_edges.emplace(in_sources[k], v);
    EXPECT_EQ(out_edges, in_edges) << (symmetric ? "symmetric" : "directed");
  }
}

// A symmetric graph's in-CSR equals its out-CSR, so it stores one: the
// in-edge spans are the out arrays. A directed graph keeps its own.
TEST(Rmat, SymmetricGraphSharesOneCsr) {
  GraphSpec spec = tiny_spec();
  const auto sym = graph::make_rmat(spec);
  EXPECT_EQ(sym->in_offsets().data(), sym->out_offsets.data());
  EXPECT_EQ(sym->in_sources().data(), sym->out_targets.data());
  EXPECT_TRUE(sym->directed_in_offsets.empty());
  EXPECT_TRUE(sym->directed_in_sources.empty());
  EXPECT_EQ(sym->bytes(), (sym->n + 1) * sizeof(std::uint64_t) +
                              sym->m * (sizeof(std::uint32_t) + sizeof(float)));

  spec.symmetric = false;
  const auto dir = graph::make_rmat(spec);
  EXPECT_NE(dir->in_offsets().data(), dir->out_offsets.data());
  EXPECT_NE(dir->in_sources().data(), dir->out_targets.data());
  EXPECT_EQ(dir->in_offsets().data(), dir->directed_in_offsets.data());
  EXPECT_EQ(dir->in_sources().data(), dir->directed_in_sources.data());
  EXPECT_EQ(dir->bytes(),
            2 * (dir->n + 1) * sizeof(std::uint64_t) +
                dir->m * (2 * sizeof(std::uint32_t) + sizeof(float)));
}

TEST(Rmat, SymmetricGraphHasBothDirections) {
  const auto g = graph::make_rmat(tiny_spec());
  // For each edge (u,v) there must be a (v,u).
  std::multiset<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t u = 0; u < g->n; ++u)
    for (std::uint64_t k = g->out_offsets[u]; k < g->out_offsets[u + 1]; ++k)
      edges.emplace(u, g->out_targets[k]);
  for (const auto& [u, v] : edges)
    EXPECT_TRUE(edges.count({v, u}) > 0) << u << "->" << v;
}

TEST(Rmat, DegreeDistributionIsSkewed) {
  const auto g = graph::make_rmat(GraphSpec{12, 16, 3, true});
  std::uint32_t max_deg = 0;
  for (std::uint32_t v = 0; v < g->n; ++v)
    max_deg = std::max(max_deg, g->out_degree(v));
  const double avg = static_cast<double>(g->m) / g->n;
  EXPECT_GT(max_deg, 20 * avg) << "R-MAT must produce heavy-tail hubs";
}

TEST(Rmat, DeterministicForSameSpec) {
  const auto a = graph::make_rmat(tiny_spec());
  const auto b = graph::make_rmat(tiny_spec());
  EXPECT_EQ(a->out_targets, b->out_targets);
  EXPECT_EQ(a->weights, b->weights);
}

TEST(Rmat, CacheReturnsSameInstance) {
  const auto a = graph::rmat_cached(tiny_spec());
  const auto b = graph::rmat_cached(tiny_spec());
  EXPECT_EQ(a.get(), b.get());
}

TEST(Rmat, NoSelfLoops) {
  const auto g = graph::make_rmat(tiny_spec());
  for (std::uint32_t u = 0; u < g->n; ++u)
    for (std::uint64_t k = g->out_offsets[u]; k < g->out_offsets[u + 1]; ++k)
      EXPECT_NE(g->out_targets[k], u);
}

TEST(Rmat, RejectsScalesOutsideOneToThirtyOne) {
  // Scale 0 is one vertex, whose only edge would be a self loop; at 32
  // the vertex count no longer fits.
  EXPECT_THROW(graph::make_rmat(GraphSpec{0, 8, 7, true}),
               std::invalid_argument);
  EXPECT_THROW(graph::make_rmat(GraphSpec{32, 8, 7, true}),
               std::invalid_argument);
  EXPECT_THROW(graph::make_rmat(GraphSpec{40, 8, 7, false}),
               std::invalid_argument);
  // Scale 1: two vertices, so every edge joins them.
  const auto g = graph::make_rmat(GraphSpec{1, 8, 7, true});
  EXPECT_EQ(g->n, 2u);
  EXPECT_EQ(g->m, 16u);
  EXPECT_EQ(g->out_degree(0), 8u);
  EXPECT_EQ(g->out_degree(1), 8u);
}

TEST(SplitMix64, AdvanceEqualsRepeatedDraws) {
  for (const std::uint64_t draws : {0ull, 1ull, 2ull, 33ull, 10'000ull,
                                    123'457ull}) {
    util::SplitMix64 stepped{42};
    util::SplitMix64 jumped{42};
    for (std::uint64_t i = 0; i < draws; ++i) (void)stepped.next();
    jumped.advance(draws);
    for (int k = 0; k < 4; ++k)
      ASSERT_EQ(jumped.next(), stepped.next()) << draws << " draws, k=" << k;
  }
  // The state wraps: 2^64 - 1 draws ahead is one draw behind.
  util::SplitMix64 fresh{7};
  util::SplitMix64 wrapped{7};
  wrapped.advance(~0ull);
  (void)wrapped.next();
  EXPECT_EQ(wrapped.next(), fresh.next());
}

void expect_same_graph(const graph::reference::Graph& want,
                       const graph::Graph& got, const std::string& what) {
  EXPECT_EQ(got.n, want.n) << what;
  EXPECT_EQ(got.m, want.m) << what;
  EXPECT_TRUE(got.out_offsets == want.out_offsets) << what;
  EXPECT_TRUE(got.out_targets == want.out_targets) << what;
  EXPECT_TRUE(std::ranges::equal(got.in_offsets(), want.in_offsets)) << what;
  EXPECT_TRUE(std::ranges::equal(got.in_sources(), want.in_sources)) << what;
  // Bit for bit: the weights are whole numbers, so == is exact.
  EXPECT_TRUE(got.weights == want.weights) << what;
}

TEST(Rmat, MatchesSerialReference) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);

  for (const std::uint32_t scale : {1u, 6u, 10u, 14u})
    for (const bool symmetric : {true, false})
      for (const std::uint64_t seed : {42ull, 7ull}) {
        const GraphSpec spec{scale, 5, seed, symmetric};
        const std::uint64_t m_base =
            (std::uint64_t{1} << scale) * 5 / (symmetric ? 2 : 1);
        ASSERT_NE(m_base % graph::kRmatChunkEdges, 0u)
            << "every cell must end in a partial chunk";
        const std::string what = "scale " + std::to_string(scale) +
                                 (symmetric ? " symmetric" : " directed") +
                                 " seed " + std::to_string(seed);
        const auto want = graph::reference::make_rmat(spec);

        expect_same_graph(want, *graph::make_rmat(spec), what + ", all lanes");

        // One lane, as under `taskset -c`: parallel_for runs serially.
        ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
        const auto narrowed = graph::make_rmat(spec);
        ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
        expect_same_graph(want, *narrowed, what + ", one CPU");

        // Inside a pool worker, where parallel_for runs serially too.
        // The latch holds each index until the other has started, so
        // they run on two threads: the caller and one pool worker.
        std::latch both{2};
        std::shared_ptr<const graph::Graph> nested[2];
        util::parallel_for(2, 2, [&](std::size_t i) {
          both.arrive_and_wait();
          nested[i] = graph::make_rmat(spec);
        });
        for (const auto& g : nested)
          expect_same_graph(want, *g, what + ", nested in the pool");
      }
}

TEST(HostOracles, BfsAndDijkstraAgreeOnReachability) {
  const auto g = graph::make_rmat(tiny_spec());
  const auto root = g->max_degree_vertex();
  const auto lvl = graph::host_bfs_levels(*g, root);
  const auto dist = graph::host_dijkstra(*g, root);
  for (std::uint32_t v = 0; v < g->n; ++v)
    EXPECT_EQ(lvl[v] >= 0, !std::isinf(dist[v]));
}

TEST(HostOracles, ComponentsAreEquivalenceClasses) {
  const auto g = graph::make_rmat(tiny_spec());
  const auto comp = graph::host_components(*g);
  for (std::uint32_t u = 0; u < g->n; ++u)
    for (std::uint64_t k = g->out_offsets[u]; k < g->out_offsets[u + 1]; ++k)
      EXPECT_EQ(comp[u], comp[g->out_targets[k]]);
}

// ---------------------------------------------------------------------
// End-to-end: run each graph model on a tiny machine, then check its
// algorithmic output against the host oracle via AppModel::verify().
// ---------------------------------------------------------------------

class GraphModelRun : public ::testing::TestWithParam<const char*> {};

TEST_P(GraphModelRun, SimulatedRunMatchesHostOracle) {
  const char* name = GetParam();
  auto model = Registry::instance().create(
      name, AppParams{0, 4, SizeClass::Tiny, 1});
  sim::MachineConfig cfg = sim::MachineConfig::scaled();
  sim::Machine m{cfg};
  sim::AppBinding b;
  b.id = 0;
  b.cores = {0, 1, 2, 3};
  b.sources = model->sources();
  m.add_app(std::move(b));
  const auto out = m.run();
  EXPECT_FALSE(out.hit_cycle_limit);
  EXPECT_GT(out.finish_cycle, 0u);
  EXPECT_EQ(model->verify(), "") << name;
}

INSTANTIATE_TEST_SUITE_P(AllGraphApps, GraphModelRun,
                         ::testing::Values("G-PR", "G-BFS", "G-BC", "G-SSSP",
                                           "G-CC", "P-PR", "P-CC", "P-SSSP"));

TEST(GraphModelRestart, BackgroundRestartRecomputesCorrectly) {
  // Run G-CC twice via restart (as the co-run harness does for
  // background apps) and verify the second run is also correct.
  auto model = Registry::instance().create(
      "G-CC", AppParams{0, 2, SizeClass::Tiny, 1});
  for (int round = 0; round < 2; ++round) {
    sim::Machine m{sim::MachineConfig::scaled()};
    sim::AppBinding b;
    b.id = 0;
    b.cores = {0, 1};
    b.sources = model->sources();
    m.add_app(std::move(b));
    m.run();
    EXPECT_EQ(model->verify(), "") << "round " << round;
    model->restart();
  }
}

TEST(GraphModelThreads, ResultIndependentOfThreadCount) {
  // The algorithms are deterministic per thread count; across thread
  // counts the *verified result* must stay correct.
  for (unsigned t : {1u, 2u, 4u}) {
    auto model = Registry::instance().create(
        "P-SSSP", AppParams{0, t, SizeClass::Tiny, 1});
    sim::Machine m{sim::MachineConfig::scaled()};
    sim::AppBinding b;
    b.id = 0;
    for (unsigned i = 0; i < t; ++i) b.cores.push_back(i);
    b.sources = model->sources();
    m.add_app(std::move(b));
    m.run();
    EXPECT_EQ(model->verify(), "") << t << " threads";
  }
}

}  // namespace
}  // namespace coperf::wl
