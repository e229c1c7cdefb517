// Unit tests for the four-prefetcher bank.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/prefetcher.hpp"

namespace coperf::sim {
namespace {

std::vector<PrefetchRequest> reqs;

bool contains_line(const std::vector<PrefetchRequest>& v, Addr line) {
  return std::any_of(v.begin(), v.end(),
                     [&](const PrefetchRequest& r) { return r.line == line; });
}

PrefetcherBank make_bank(PrefetchMask mask) {
  return PrefetcherBank{mask, /*degree=*/4, /*train=*/2};
}

TEST(Prefetcher, AllOffEmitsNothing) {
  auto bank = make_bank(PrefetchMask::all_off());
  std::vector<PrefetchRequest> out;
  for (Addr a = 0; a < 100 * kLineBytes; a += kLineBytes) {
    bank.on_l1_access(a, 1, true, out);
    bank.on_l2_miss(line_of(a), out);
  }
  EXPECT_TRUE(out.empty());
}

TEST(Prefetcher, NextLineFiresOnAscendingL1Misses) {
  PrefetchMask m = PrefetchMask::all_off();
  m.l1_next_line = true;
  auto bank = make_bank(m);
  std::vector<PrefetchRequest> out;
  bank.on_l1_access(10 * kLineBytes, 1, /*miss=*/true, out);
  EXPECT_TRUE(out.empty()) << "a single miss has no direction yet";
  bank.on_l1_access(11 * kLineBytes, 1, /*miss=*/true, out);
  ASSERT_EQ(out.size(), 1u) << "second ascending miss triggers next-line";
  EXPECT_EQ(out[0].line, 12u);
  EXPECT_EQ(out[0].level, PrefetchLevel::L1);
  out.clear();
  bank.on_l1_access(13 * kLineBytes, 1, /*miss=*/false, out);
  EXPECT_TRUE(out.empty()) << "next-line triggers only on misses";
}

TEST(Prefetcher, NextLineIgnoresRandomMisses) {
  PrefetchMask m = PrefetchMask::all_off();
  m.l1_next_line = true;
  auto bank = make_bank(m);
  std::vector<PrefetchRequest> out;
  const Addr lines[] = {500, 17, 90000, 3, 72000, 41};
  for (Addr l : lines) bank.on_l1_access(l * kLineBytes, 1, true, out);
  EXPECT_TRUE(out.empty()) << "graph gathers must not trigger next-line";
}

TEST(Prefetcher, AdjacentLineIsBuddy) {
  PrefetchMask m = PrefetchMask::all_off();
  m.l2_adjacent = true;
  auto bank = make_bank(m);
  std::vector<PrefetchRequest> out;
  bank.on_l2_miss(8, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 9u);  // 8^1
  out.clear();
  bank.on_l2_miss(9, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 8u);  // 9^1
}

TEST(Prefetcher, StreamerTrainsOnSequentialMisses) {
  PrefetchMask m = PrefetchMask::all_off();
  m.l2_stream = true;
  auto bank = make_bank(m);
  std::vector<PrefetchRequest> out;
  bank.on_l2_miss(100, out);
  EXPECT_TRUE(out.empty()) << "first touch only allocates the stream";
  bank.on_l2_miss(101, out);
  EXPECT_TRUE(out.empty()) << "below training threshold";
  bank.on_l2_miss(102, out);
  ASSERT_EQ(out.size(), 4u) << "trained stream prefetches `degree` lines";
  EXPECT_TRUE(contains_line(out, 104));
  EXPECT_TRUE(contains_line(out, 107));
}

TEST(Prefetcher, StreamerTracksDescendingStreams) {
  PrefetchMask m = PrefetchMask::all_off();
  m.l2_stream = true;
  auto bank = make_bank(m);
  std::vector<PrefetchRequest> out;
  bank.on_l2_miss(200, out);
  bank.on_l2_miss(199, out);
  bank.on_l2_miss(198, out);
  EXPECT_FALSE(out.empty());
  EXPECT_TRUE(contains_line(out, 196));
}

TEST(Prefetcher, StreamerStopsAtPageBoundary) {
  PrefetchMask m = PrefetchMask::all_off();
  m.l2_stream = true;
  auto bank = make_bank(m);
  std::vector<PrefetchRequest> out;
  // Lines 62, 63 of page 0 -> prefetches must not cross into page 1.
  bank.on_l2_miss(61, out);
  bank.on_l2_miss(62, out);
  bank.on_l2_miss(63, out);
  for (const auto& r : out) EXPECT_LT(r.line, 64u);
}

TEST(Prefetcher, StreamerIgnoresRandomPattern) {
  PrefetchMask m = PrefetchMask::all_off();
  m.l2_stream = true;
  auto bank = make_bank(m);
  std::vector<PrefetchRequest> out;
  const Addr lines[] = {5, 900, 13, 4400, 77, 2100, 9, 3333};
  for (Addr l : lines) bank.on_l2_miss(l, out);
  EXPECT_TRUE(out.empty());
}

TEST(Prefetcher, IpStrideLearnsConstantStride) {
  PrefetchMask m = PrefetchMask::all_off();
  m.l1_ip_stride = true;
  auto bank = make_bank(m);
  std::vector<PrefetchRequest> out;
  // Stride of 256 bytes at pc=7: needs confidence 2 (3 accesses).
  for (Addr a = 0; a < 6 * 256; a += 256)
    bank.on_l1_access(a, 7, false, out);
  EXPECT_FALSE(out.empty());
  // Prefetch distance 2 strides ahead.
  const Addr last = 5 * 256;
  EXPECT_TRUE(contains_line(out, line_of(last + 2 * 256)));
}

TEST(Prefetcher, IpStrideIgnoresHugeStrides) {
  PrefetchMask m = PrefetchMask::all_off();
  m.l1_ip_stride = true;
  auto bank = make_bank(m);
  std::vector<PrefetchRequest> out;
  // Bandit-style 64 KiB hops: too large for the DCU IP prefetcher.
  for (Addr a = 0; a < 10ull * 65536; a += 65536)
    bank.on_l1_access(a, 9, true, out);
  // Only next-line could have fired, and it is off.
  EXPECT_TRUE(out.empty());
}

TEST(Prefetcher, IpStrideDistinguishesPcs) {
  PrefetchMask m = PrefetchMask::all_off();
  m.l1_ip_stride = true;
  auto bank = make_bank(m);
  std::vector<PrefetchRequest> out;
  // Interleaved streams on distinct PCs must both train.
  for (int i = 0; i < 6; ++i) {
    bank.on_l1_access(static_cast<Addr>(i) * 128, 3, false, out);
    bank.on_l1_access(1 << 20 | (static_cast<Addr>(i) * 512), 4, false, out);
  }
  EXPECT_GE(out.size(), 2u);
}

TEST(Prefetcher, ResetClearsState) {
  auto bank = make_bank(PrefetchMask::all_on());
  std::vector<PrefetchRequest> out;
  bank.on_l2_miss(10, out);
  bank.on_l2_miss(11, out);
  bank.on_l2_miss(12, out);
  EXPECT_FALSE(out.empty());
  bank.reset();
  out.clear();
  bank.on_l2_miss(13, out);
  // Stream table was cleared: single miss allocates, no prefetch beyond
  // the adjacent-line buddy.
  for (const auto& r : out) EXPECT_EQ(r.line, 13u ^ 1u);
}

TEST(Prefetcher, MaskToggleTakesEffect) {
  auto bank = make_bank(PrefetchMask::all_on());
  std::vector<PrefetchRequest> out;
  bank.set_mask(PrefetchMask::all_off());
  bank.on_l1_access(0, 1, true, out);
  bank.on_l2_miss(0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(bank.mask(), PrefetchMask::all_off());
}

}  // namespace
}  // namespace coperf::sim
