// Latency-critical serving workloads (the "serve" suite).
//
// The paper's datacenter framing needs a victim whose health is a tail
// latency, not a completion time. Two canonical serving apps are
// modelled after the appbench profiles in SNIPPETS.md:
//
// kvserve (Redis-style in-memory KV): small random GET/SET commands
// over a pointer-rich hash table. Zipfian key popularity, a bucket
// probe plus a short data-dependent chain walk per command, ~10% SETs,
// and an occasional multi-key scan that stretches the tail. One
// command = one request mark, so the core records a per-request
// latency distribution in simulated cycles.
//
// lsmserve (LevelDB-style LSM tree): foreground point gets (memtable
// probe, per-level index descent, a short sequential block read at the
// bottom level) while thread 0 runs background compaction -- large
// sequential merge scans that emit NO request marks but fight their
// own foreground for cache and bandwidth. The classic LSM tail problem
// in miniature: solo p99 already carries the compaction interference,
// and co-runners stack on top.
//
// Both are latency-bound (low MLP, chain-dependent probes), so they
// are victims in the paper's sense: streaming aggressors inflate their
// p99 far more than their throughput.
#include <cmath>
#include <cstdint>

#include "util/rng.hpp"
#include "wl/registry.hpp"
#include "wl/regions.hpp"
#include "wl/sim_array.hpp"
#include "wl/workload.hpp"

namespace coperf::wl {
namespace {

using sim::Dep;

/// Zipfian rank sampler over `ranks` coarse popularity classes with a
/// precomputed inverse-CDF table: draw uniform, binary-search the
/// cumulative harmonic weights. Deterministic given the RNG stream;
/// rank 0 is the hottest class.
class ZipfTable {
 public:
  ZipfTable(std::size_t ranks, double s) : cum_(ranks) {
    double total = 0.0;
    for (std::size_t r = 0; r < ranks; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cum_[r] = total;
    }
    for (double& c : cum_) c /= total;
  }

  std::size_t sample(util::SplitMix64& rng) const {
    const double u = rng.uniform();
    std::size_t lo = 0, hi = cum_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cum_[mid] < u)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

 private:
  std::vector<double> cum_;
};

// ---------------------------------------------------------------------
// kvserve -- Redis-style in-memory key-value store
// ---------------------------------------------------------------------
class KvServeModel final : public WorkloadBase {
 public:
  explicit KvServeModel(const AppParams& p)
      : WorkloadBase("kvserve", p, sim::ThreadAttr{0.6, 4}),
        requests_(scaled_size(60'000, p.size, 4'000)),
        zipf_(kZipfRanks, 0.99) {
    // Per-thread shard: bucket heads + a chained node pool. The pool
    // straddles the LLC at Small so hot keys cache and cold chains
    // miss -- the co-runner decides which.
    const std::size_t buckets = scaled_size(std::size_t{1} << 16, p.size,
                                            std::size_t{1} << 12);
    const std::size_t nodes = scaled_size(std::size_t{1} << 18, p.size,
                                          std::size_t{1} << 14);
    for (unsigned t = 0; t < p.threads; ++t) {
      buckets_.emplace_back(space(), buckets);
      nodes_.emplace_back(space(), nodes);
    }
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    const auto& buckets = buckets_[tid];
    const auto& nodes = nodes_[tid];
    const std::size_t nbuckets = buckets.size();
    const std::size_t nnodes = nodes.size();
    const std::size_t keys_per_rank = nnodes / kZipfRanks;
    util::SplitMix64 rng{util::seed_combine(params().seed, tid)};

    co_await ctx.region(region_id("kvserve/commands"));
    co_await ctx.request_reset();  // exclude setup from the first request
    for (std::uint64_t i = 0; i < requests_; ++i) {
      // Zipfian key: a hot popularity rank, then a key within it.
      const std::size_t rank = zipf_.sample(rng);
      const std::size_t key =
          rank * keys_per_rank + rng.below(keys_per_rank ? keys_per_rank : 1);
      // Command parse + hash.
      co_await ctx.compute(20);
      // Bucket head probe (independent: the address comes from the hash).
      co_await ctx.load(buckets.addr_of(key * kBucketHash % nbuckets), 41);
      // Walk the collision chain: each hop's address lives in the
      // previous node -- pure pointer chasing.
      const std::size_t depth = 1 + key % 3;
      std::size_t node = key;
      for (std::size_t d = 0; d < depth; ++d) {
        co_await ctx.load(nodes.addr_of(node % nnodes), 42, Dep::Chain);
        node = node * 0x9E3779B9u + d + 1;
      }
      // ~10% SETs rewrite the found node.
      if (rng.below(10) == 0) co_await ctx.store(nodes.addr_of(node % nnodes), 43);
      co_await ctx.compute(12);  // reply serialization
      // Rare multi-key scan (SCAN/MGET): stretches the tail.
      if (i % 1024 == 1023) {
        const std::size_t start = rng.below(nnodes - kScanLines);
        for (std::size_t l = 0; l < kScanLines; ++l)
          co_await ctx.load(nodes.addr_of(start + l), 44);
        co_await ctx.compute(64);
      }
      co_await ctx.request_done();
    }
  }

 private:
  static constexpr std::size_t kZipfRanks = 1024;
  static constexpr std::size_t kBucketHash = 0x2545F491;  // odd multiplier
  static constexpr std::size_t kScanLines = 32;

  std::uint64_t requests_;
  ZipfTable zipf_;
  std::vector<GhostArray<CacheLine>> buckets_, nodes_;
};

// ---------------------------------------------------------------------
// lsmserve -- LevelDB-style LSM tree with background compaction
// ---------------------------------------------------------------------
class LsmServeModel final : public WorkloadBase {
 public:
  explicit LsmServeModel(const AppParams& p)
      : WorkloadBase("lsmserve", p, sim::ThreadAttr{0.6, 6}),
        gets_(scaled_size(40'000, p.size, 3'000)),
        compaction_rounds_(p.size == SizeClass::Tiny ? 1 : 2) {
    const std::size_t memtable = scaled_size(std::size_t{1} << 12, p.size,
                                             std::size_t{1} << 9);
    const std::size_t level_base = scaled_size(std::size_t{1} << 14, p.size,
                                               std::size_t{1} << 11);
    for (unsigned t = 0; t < p.threads; ++t)
      memtables_.emplace_back(space(), memtable);
    // Levels grow 4x per depth, shared by all foreground threads (an
    // LSM tree is one structure; ghost data needs no synchronization).
    for (std::size_t lvl = 0; lvl < kLevels; ++lvl)
      levels_.emplace_back(space(), level_base << (2 * lvl));
    // Compaction state: two input runs merged into one output run.
    const std::size_t run = scaled_size(std::size_t{1} << 15, p.size,
                                        std::size_t{1} << 12);
    run_a_ = GhostArray<CacheLine>(space(), run);
    run_b_ = GhostArray<CacheLine>(space(), run);
    run_out_ = GhostArray<CacheLine>(space(), 2 * run);
  }

 protected:
  TraceGen body(ThreadCtx& ctx, unsigned tid) override {
    // Thread 0 is the background compactor when it has siblings to
    // serve the gets; a 1-thread instance degrades to gets only.
    if (tid == 0 && threads() >= 2) return compaction(ctx);
    return gets(ctx, tid);
  }

 private:
  TraceGen gets(ThreadCtx& ctx, unsigned tid) {
    const auto& memtable = memtables_[tid];
    util::SplitMix64 rng{util::seed_combine(params().seed, 0x15A + tid)};

    co_await ctx.region(region_id("lsmserve/get"));
    co_await ctx.request_reset();
    for (std::uint64_t i = 0; i < gets_; ++i) {
      co_await ctx.compute(16);  // key compare + seek setup
      // Memtable probe: skiplist descent, data-dependent hops.
      std::size_t idx = rng.below(memtable.size());
      for (int hop = 0; hop < 3; ++hop) {
        co_await ctx.load(memtable.addr_of(idx), 51, Dep::Chain);
        idx = (idx * 0x9E3779B9u + 7) % memtable.size();
      }
      // Level descent: one index/filter line per level (pointer chase),
      // then a short sequential block read at the hit level. Most keys
      // resolve deep (larger levels hold more keys).
      const std::size_t hit_level = pick_level(rng);
      for (std::size_t lvl = 0; lvl <= hit_level; ++lvl) {
        const auto& level = levels_[lvl];
        co_await ctx.load(level.addr_of(rng.below(level.size())), 52,
                          Dep::Chain);
      }
      const auto& data = levels_[hit_level];
      const std::size_t block =
          rng.below(data.size() > kBlockLines ? data.size() - kBlockLines : 1);
      for (std::size_t l = 0; l < kBlockLines; ++l)
        co_await ctx.load(data.addr_of(block + l), 53);
      co_await ctx.compute(24);  // decode + reply
      co_await ctx.request_done();
    }
  }

  TraceGen compaction(ThreadCtx& ctx) {
    // Merge two sorted runs into an output run: two sequential read
    // streams, a compare per line, one sequential write stream. No
    // request marks -- compaction is background work whose cost shows
    // up as the foreground's tail, exactly like the real system.
    co_await ctx.region(region_id("lsmserve/compaction"));
    const std::size_t lines = run_a_.size();
    for (unsigned r = 0; r < compaction_rounds_; ++r) {
      for (std::size_t l = 0; l < lines; ++l) {
        co_await ctx.load(run_a_.addr_of(l), 54);
        co_await ctx.load(run_b_.addr_of(l), 55);
        co_await ctx.compute(10);  // merge compare
        co_await ctx.store(run_out_.addr_of(2 * l), 56);
        co_await ctx.store(run_out_.addr_of(2 * l + 1), 56);
      }
    }
  }

  /// Levels hold 4x more keys per depth: P(level) ~ its share.
  std::size_t pick_level(util::SplitMix64& rng) const {
    const std::uint64_t u = rng.below(1 + 4 + 16);
    if (u < 1) return 0;
    if (u < 5) return 1;
    return 2;
  }

  static constexpr std::size_t kLevels = 3;
  static constexpr std::size_t kBlockLines = 16;

  std::uint64_t gets_;
  unsigned compaction_rounds_;
  std::vector<GhostArray<CacheLine>> memtables_;
  std::vector<GhostArray<CacheLine>> levels_;
  GhostArray<CacheLine> run_a_, run_b_, run_out_;
};

}  // namespace

void register_serve(Registry& r) {
  r.add(WorkloadInfo{
      "kvserve", "serve",
      "Redis-style in-memory KV: Zipfian GET/SET over a pointer-rich "
      "hash table; one command = one latency-tracked request",
      false,
      [](const AppParams& p) { return std::make_unique<KvServeModel>(p); }});
  r.add(WorkloadInfo{
      "lsmserve", "serve",
      "LevelDB-style LSM: foreground point gets (latency-tracked) + a "
      "background compaction thread doing large sequential merges",
      false,
      [](const AppParams& p) { return std::make_unique<LsmServeModel>(p); }});
}

}  // namespace coperf::wl
