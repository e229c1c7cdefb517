// Unit tests for the set-associative cache model.
#include <gtest/gtest.h>

#include "sim/cache.hpp"

namespace coperf::sim {
namespace {

CacheConfig small_cfg(std::uint64_t size = 4096, std::uint32_t assoc = 4) {
  CacheConfig c;
  c.size_bytes = size;
  c.assoc = assoc;
  c.latency_cycles = 10;
  return c;
}

TEST(Cache, MissThenHitAfterFill) {
  Cache c{"t", small_cfg()};
  EXPECT_FALSE(c.access(7, false).hit);
  c.fill(7, false, false);
  EXPECT_TRUE(c.access(7, false).hit);
  EXPECT_EQ(c.stats().demand_misses, 1u);
  EXPECT_EQ(c.stats().demand_hits, 1u);
}

TEST(Cache, ProbeHasNoSideEffects) {
  Cache c{"t", small_cfg()};
  EXPECT_FALSE(c.probe(5));
  c.fill(5, false, false);
  EXPECT_TRUE(c.probe(5));
  EXPECT_EQ(c.stats().demand_hits, 0u);
  EXPECT_EQ(c.stats().demand_misses, 0u);
}

TEST(Cache, GeometryDerivedFromConfig) {
  Cache c{"t", small_cfg(32 * 1024, 8)};
  EXPECT_EQ(c.num_sets(), 32u * 1024 / (8 * 64));
  EXPECT_EQ(c.assoc(), 8u);
  EXPECT_EQ(c.size_bytes(), 32u * 1024);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  // One set: 4 ways; lines mapping to set 0 are multiples of num_sets.
  Cache c{"t", small_cfg(4096, 4)};
  const std::uint64_t sets = c.num_sets();
  // Fill 4 ways of set 0.
  for (std::uint64_t i = 0; i < 4; ++i) c.fill(i * sets, false, false);
  // Touch lines 0..2 so line 3*sets is LRU.
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_TRUE(c.access(i * sets, false).hit);
  const CacheResult r = c.fill(4 * sets, false, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, 3 * sets);
}

TEST(Cache, DirtyEvictionRequestsWriteback) {
  Cache c{"t", small_cfg(4096, 2)};
  const std::uint64_t sets = c.num_sets();
  c.fill(0, /*dirty=*/true, false);
  c.fill(sets, false, false);
  const CacheResult r = c.fill(2 * sets, false, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(r.evicted_line, 0u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, StoreHitMarksLineDirty) {
  Cache c{"t", small_cfg(4096, 2)};
  const std::uint64_t sets = c.num_sets();
  c.fill(0, false, false);
  EXPECT_TRUE(c.access(0, /*is_write=*/true).hit);
  c.fill(sets, false, false);
  const CacheResult r = c.fill(2 * sets, false, false);
  EXPECT_TRUE(r.evicted_dirty) << "store hit must dirty the line";
}

TEST(Cache, MarkDirtyOnPresentLine) {
  Cache c{"t", small_cfg(4096, 2)};
  c.fill(3, false, false);
  c.mark_dirty(3);
  const auto inv = c.invalidate(3);
  EXPECT_TRUE(inv.present);
  EXPECT_TRUE(inv.dirty);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c{"t", small_cfg()};
  c.fill(9, false, false);
  EXPECT_TRUE(c.probe(9));
  const auto inv = c.invalidate(9);
  EXPECT_TRUE(inv.present);
  EXPECT_FALSE(c.probe(9));
  EXPECT_EQ(c.stats().back_invalidations, 1u);
  // Second invalidate is a no-op.
  EXPECT_FALSE(c.invalidate(9).present);
}

TEST(Cache, PrefetchUsefulnessCountedOnce) {
  Cache c{"t", small_cfg()};
  c.fill(11, false, /*from_prefetch=*/true);
  EXPECT_EQ(c.stats().prefetch_fills, 1u);
  const CacheResult first = c.access(11, false);
  EXPECT_TRUE(first.hit);
  EXPECT_TRUE(first.was_prefetched);
  EXPECT_EQ(c.stats().prefetch_useful, 1u);
  const CacheResult second = c.access(11, false);
  EXPECT_TRUE(second.hit);
  EXPECT_FALSE(second.was_prefetched) << "only first touch counts";
  EXPECT_EQ(c.stats().prefetch_useful, 1u);
}

TEST(Cache, DuplicateFillKeepsDirtyBit) {
  Cache c{"t", small_cfg()};
  c.fill(4, true, false);
  c.fill(4, false, false);  // prefetch raced a demand fill
  const auto inv = c.invalidate(4);
  EXPECT_TRUE(inv.dirty);
}

TEST(Cache, OccupancyTracksValidLines) {
  Cache c{"t", small_cfg(4096, 4)};
  EXPECT_EQ(c.occupancy(), 0u);
  for (std::uint64_t i = 0; i < 10; ++i) c.fill(i, false, false);
  EXPECT_EQ(c.occupancy(), 10u);
}

TEST(Cache, OccupancyPerApp) {
  Cache c{"t", small_cfg(64 * 1024, 16)};
  const Addr app1 = app_base(1) >> kLineBytesLog2;
  for (std::uint64_t i = 0; i < 5; ++i) c.fill(i, false, false);
  for (std::uint64_t i = 0; i < 3; ++i) c.fill(app1 + i, false, false);
  EXPECT_EQ(c.occupancy_of(0), 5u);
  EXPECT_EQ(c.occupancy_of(1), 3u);
}

TEST(Cache, HashedIndexSpreadsAppSpaces) {
  // With hashed indexing, two app spaces whose low bits are identical
  // should not collide into the same sets systematically.
  CacheConfig cfg = small_cfg(64 * 1024, 2);
  Cache plain{"p", cfg, /*hashed_index=*/false};
  Cache hashed{"h", cfg, /*hashed_index=*/true};
  const Addr app1 = app_base(1) >> kLineBytesLog2;
  std::uint64_t same_plain = 0, same_hashed = 0;
  for (std::uint64_t i = 0; i < 256; ++i) {
    same_plain += plain.set_index(i) == plain.set_index(app1 + i);
    same_hashed += hashed.set_index(i) == hashed.set_index(app1 + i);
  }
  EXPECT_EQ(same_plain, 256u) << "plain indexing aliases app spaces";
  EXPECT_LT(same_hashed, 32u) << "hashed indexing must spread them";
}

TEST(Cache, RejectsNonPowerOfTwoSets) {
  CacheConfig cfg;
  cfg.size_bytes = 3 * 1024;
  cfg.assoc = 4;
  EXPECT_THROW((Cache{"bad", cfg}), std::invalid_argument);
}

TEST(Cache, WorksAtPaperL3Geometry) {
  CacheConfig cfg;
  cfg.size_bytes = 20ull * 1024 * 1024;
  cfg.assoc = 20;
  cfg.latency_cycles = 38;
  Cache c{"L3", cfg, true};
  EXPECT_EQ(c.num_sets(), 16384u);
  for (std::uint64_t i = 0; i < 100'000; ++i) c.fill(i * 7, false, false);
  EXPECT_LE(c.occupancy(), cfg.size_bytes / 64);
}

/// Property sweep: filling exactly `ways` distinct lines of one set
/// never evicts; one more always evicts, for several geometries.
class CacheAssocSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheAssocSweep, SetFillsToExactlyAssocWays) {
  const std::uint32_t assoc = GetParam();
  // 16 sets for any associativity (set count must be a power of two).
  Cache c{"t", small_cfg(std::uint64_t{assoc} * 64 * 16, assoc)};
  const std::uint64_t sets = c.num_sets();
  for (std::uint32_t i = 0; i < assoc; ++i) {
    const CacheResult r = c.fill(std::uint64_t{i} * sets, false, false);
    EXPECT_FALSE(r.evicted) << "way " << i;
  }
  EXPECT_TRUE(c.fill(std::uint64_t{assoc} * sets, false, false).evicted);
  // All but the evicted line must still be present.
  std::uint32_t present = 0;
  for (std::uint32_t i = 0; i <= assoc; ++i)
    present += c.probe(std::uint64_t{i} * sets);
  EXPECT_EQ(present, assoc);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheAssocSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 20));

}  // namespace
}  // namespace coperf::sim
