// Unit tests for the DRAM channel and the memory hierarchy.
#include <gtest/gtest.h>

#include "sim/hierarchy.hpp"
#include "sim/memory.hpp"

namespace coperf::sim {
namespace {

TEST(MemoryChannel, UnloadedLatencyIsBasePlusService) {
  MemoryChannel ch{/*bytes_per_cycle=*/10.0, /*base_latency=*/200};
  const Cycle done = ch.read(1000, 64, 0);
  // service = ceil(64/10 + 0.5)-ish ~ 6-7 cycles, no queueing.
  EXPECT_GE(done, 1000u + 200u + 6u);
  EXPECT_LE(done, 1000u + 200u + 8u);
  EXPECT_EQ(ch.stats().reads, 1u);
  EXPECT_EQ(ch.stats().bytes_read, 64u);
}

TEST(MemoryChannel, BackToBackRequestsQueue) {
  MemoryChannel ch{10.0, 200};
  const Cycle first = ch.read(0, 64, 0);
  const Cycle second = ch.read(0, 64, 0);
  EXPECT_GT(second, first) << "same-cycle requests must serialize";
  EXPECT_GT(ch.stats().queue_delay_cycles, 0u);
}

TEST(MemoryChannel, ThroughputBoundedByPeak) {
  const double bpc = 10.0;
  MemoryChannel ch{bpc, 200};
  // Saturate: 10k back-to-back line reads at time 0.
  Cycle last = 0;
  for (int i = 0; i < 10'000; ++i) last = ch.read(0, 64, 0);
  const double achieved =
      static_cast<double>(ch.stats().bytes_read) / static_cast<double>(last);
  EXPECT_LE(achieved, bpc * 1.05);
  EXPECT_GE(achieved, bpc * 0.80);
}

TEST(MemoryChannel, PerAppAccounting) {
  MemoryChannel ch{10.0, 200};
  ch.read(0, 64, 0);
  ch.read(0, 64, 1);
  ch.read(0, 64, 1);
  ch.write(0, 64, 1);
  EXPECT_EQ(ch.bytes_of(0), 64u);
  EXPECT_EQ(ch.bytes_of(1), 3u * 64u);
  EXPECT_EQ(ch.stats().total_bytes(), 4u * 64u);
}

TEST(MemoryChannel, IdleChannelRecovers) {
  MemoryChannel ch{10.0, 200};
  for (int i = 0; i < 100; ++i) ch.read(0, 64, 0);
  // Far in the future the backlog is gone.
  const Cycle done = ch.read(1'000'000, 64, 0);
  EXPECT_LE(done, 1'000'000u + 200u + 8u);
  EXPECT_EQ(ch.backlog(2'000'000), 0u);
}

TEST(MemoryChannel, WritebacksConsumeBandwidthWithoutWaiters) {
  MemoryChannel ch{10.0, 200};
  ch.write(0, 64, 0);
  const Cycle done = ch.read(0, 64, 0);
  EXPECT_GT(done, 200u + 7u) << "read queues behind the writeback";
  EXPECT_EQ(ch.stats().writes, 1u);
}

// ---------------------------------------------------------------------
// MemorySystem (hierarchy)
// ---------------------------------------------------------------------

MachineConfig tiny_machine() {
  MachineConfig c;
  c.num_cores = 2;
  c.l1d = CacheConfig{1024, 2, 4};
  c.l2 = CacheConfig{4096, 4, 12};
  c.l3 = CacheConfig{16384, 4, 38};
  c.prefetch = PrefetchMask::all_off();
  return c;
}

TEST(MemorySystem, ColdMissGoesToMemoryThenHitsL1) {
  MemorySystem ms{tiny_machine()};
  const auto miss = ms.demand_access(0, 0x1000, 1, false, 0);
  EXPECT_EQ(miss.level, HitLevel::Mem);
  EXPECT_TRUE(miss.l2_miss);
  EXPECT_GT(miss.latency, 200u);
  const auto hit = ms.demand_access(0, 0x1008, 1, false, 100);
  EXPECT_EQ(hit.level, HitLevel::L1);
  EXPECT_EQ(hit.latency, 0u);
}

TEST(MemorySystem, PrivateCachesAreSeparate) {
  MemorySystem ms{tiny_machine()};
  (void)ms.demand_access(0, 0x1000, 1, false, 0);
  // Core 1 misses its private L1/L2 but hits the shared L3.
  const auto out = ms.demand_access(1, 0x1000, 1, false, 50);
  EXPECT_EQ(out.level, HitLevel::L3);
}

TEST(MemorySystem, InclusiveL3BackInvalidatesPrivates) {
  MachineConfig cfg = tiny_machine();
  cfg.l3_inclusive = true;
  MemorySystem ms{cfg};
  (void)ms.demand_access(0, 0, 1, false, 0);
  ASSERT_TRUE(ms.l1(0).probe(0));
  // Force every line of the (4-way) L3 set containing line 0 out.
  const std::uint64_t sets = ms.l3().num_sets();
  std::uint64_t filled = 0;
  for (std::uint64_t i = 1; filled < 64 && i < 100'000; ++i) {
    if (ms.l3().set_index(i) == ms.l3().set_index(0)) {
      (void)ms.demand_access(1, i << kLineBytesLog2, 1, false, 1000 + i);
      ++filled;
    }
  }
  EXPECT_FALSE(ms.l3().probe(0));
  EXPECT_FALSE(ms.l1(0).probe(0)) << "inclusion victim must leave L1";
  EXPECT_FALSE(ms.l2(0).probe(0)) << "inclusion victim must leave L2";
  (void)sets;
}

TEST(MemorySystem, NonInclusiveL3KeepsPrivateCopies) {
  MachineConfig cfg = tiny_machine();
  cfg.l3_inclusive = false;
  MemorySystem ms{cfg};
  (void)ms.demand_access(0, 0, 1, false, 0);
  for (std::uint64_t i = 1, filled = 0; filled < 64 && i < 100'000; ++i) {
    if (ms.l3().set_index(i) == ms.l3().set_index(0)) {
      (void)ms.demand_access(1, i << kLineBytesLog2, 1, false, 1000 + i);
      ++filled;
    }
  }
  EXPECT_TRUE(ms.l1(0).probe(0));
}

TEST(MemorySystem, StreamingWithPrefetchTurnsMissesIntoHits) {
  MachineConfig cfg = tiny_machine();
  cfg.prefetch = PrefetchMask::all_on();
  MemorySystem ms{cfg};
  std::uint64_t mem_hits = 0, total = 0;
  Cycle now = 0;
  for (Addr a = 0; a < 400 * kLineBytes; a += kLineBytes) {
    const auto out = ms.demand_access(0, a, 42, false, now);
    now += 50;
    ++total;
    mem_hits += out.level == HitLevel::Mem;
  }
  // The streamer should capture the vast majority of the stream.
  EXPECT_LT(mem_hits, total / 4)
      << "sequential stream must be mostly prefetched";
}

TEST(MemorySystem, PrefetchTrafficIsAccounted) {
  MachineConfig cfg = tiny_machine();
  cfg.prefetch = PrefetchMask::all_on();
  MemorySystem ms{cfg};
  Cycle now = 0;
  for (Addr a = 0; a < 64 * kLineBytes; a += kLineBytes) {
    (void)ms.demand_access(0, a, 42, false, now);
    now += 100;
  }
  const auto& st = ms.channel().stats();
  // More bytes were moved than demand misses alone would explain.
  EXPECT_GT(st.bytes_read, 0u);
  EXPECT_GT(ms.l1(0).stats().prefetch_fills + ms.l2(0).stats().prefetch_fills,
            0u);
}

TEST(MemorySystem, WriteAllocatesAndDirtyWritebackReachesMemory) {
  MemorySystem ms{tiny_machine()};
  // Store misses allocate...
  (void)ms.demand_access(0, 0x2000, 1, /*is_write=*/true, 0);
  EXPECT_TRUE(ms.l1(0).probe(line_of(0x2000)));
  const std::uint64_t writes_before = ms.channel().stats().writes;
  // ...then push enough conflicting lines through the tiny hierarchy to
  // force the dirty line all the way out.
  Cycle now = 100;
  for (Addr a = 0x100000; a < 0x100000 + 4096 * kLineBytes; a += kLineBytes)
    (void)ms.demand_access(0, a, 2, false, now += 10);
  EXPECT_GT(ms.channel().stats().writes, writes_before)
      << "the dirty line must eventually be written back to DRAM";
}

}  // namespace
}  // namespace coperf::sim
