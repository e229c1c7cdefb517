// Golden-stats equivalence guard for the simulator hot path.
//
// The hot-path refactors (single-scan cache fills, SoA way storage,
// presence-filtered inclusion invalidation, runnable-core scheduling)
// are pure performance work: every simulated statistic and finish cycle
// must be bit-identical to the seed implementation. This suite pins the
// Tiny-suite solo runs and three representative co-run pairs against a
// golden snapshot captured from the pre-refactor tree.
//
// Regenerate after an INTENTIONAL semantic change with:
//   COPERF_PRINT_GOLDEN=1 ./sim_equivalence_test
// and paste the printed table over kGolden below.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/parallel.hpp"
#include "harness/runcache.hpp"
#include "harness/runner.hpp"
#include "result_equality.hpp"
#include "sim/machine.hpp"
#include "wl/registry.hpp"

namespace coperf {
namespace {

using Snapshot = std::vector<std::uint64_t>;

const char* const kWorkloads[] = {"Stream", "Bandit",    "G-PR",
                                  "CIFAR",  "fotonik3d", "swaptions",
                                  "IRSmk",  "blackscholes", "G-BFS"};
const std::pair<const char*, const char*> kPairs[] = {
    {"CIFAR", "fotonik3d"},  // victim-offender (paper Fig. 5 anchor)
    {"G-PR", "fotonik3d"},   // graph victim vs. streaming offender
    {"Stream", "Bandit"},    // offender vs. cache-resident harmony
    // Prefetch-heavy pins for the request-combining queue: two trained
    // streamers saturating the bank, and a gemini graph victim whose
    // irregular gathers interleave with a streaming offender's
    // degree-4 bursts. Captured from the pre-combining tree.
    {"Stream", "Stream"},    // maximum streamer pressure, both sides
    {"G-BFS", "Stream"},     // gemini pair: gather victim vs. streamer
};

void append(Snapshot& out, const sim::CoreStats& s) {
  for (const sim::CoreStatField& f : sim::kCoreStatFields)
    out.push_back(s.*f.member);
}

void append(Snapshot& out, const sim::CacheStats& s) {
  out.insert(out.end(),
             {s.demand_hits, s.demand_misses, s.store_hits, s.store_misses,
              s.prefetch_fills, s.prefetch_useful, s.writebacks,
              s.back_invalidations});
}

harness::RunOptions tiny_options() {
  harness::RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = wl::SizeClass::Tiny;
  o.threads = 4;
  o.seed = 1;
  return o;
}

/// Solo run through the public harness: finish cycle + CoreStats.
Snapshot snap_solo(const std::string& workload) {
  const harness::RunResult r = harness::run_solo(workload, tiny_options());
  Snapshot out{r.cycles};
  append(out, r.stats);
  return out;
}

/// Co-run pair on a directly assembled Machine (mirrors run_group's
/// pair setup) so the shared-cache counters are snapshotted too.
Snapshot snap_pair(const std::string& fg, const std::string& bg) {
  const harness::RunOptions opt = tiny_options();
  const auto& reg = wl::Registry::instance();
  auto fg_model =
      reg.create(fg, wl::AppParams{0, opt.threads, opt.size, opt.seed});
  auto bg_model = reg.create(
      bg, wl::AppParams{1, opt.bg_threads, opt.size, opt.seed + 0x9E37u});

  sim::Machine m{opt.machine};
  m.set_sample_window(opt.sample_window);

  sim::AppBinding fgb;
  fgb.id = 0;
  for (unsigned c = 0; c < opt.threads; ++c) fgb.cores.push_back(c);
  fgb.sources = fg_model->sources();
  m.add_app(std::move(fgb));

  sim::AppBinding bgb;
  bgb.id = 1;
  for (unsigned c = 0; c < opt.bg_threads; ++c)
    bgb.cores.push_back(opt.threads + c);
  bgb.sources = bg_model->sources();
  bgb.background = true;
  bgb.restart = [raw = bg_model.get()] { raw->restart(); };
  m.add_app(std::move(bgb));

  const sim::RunOutcome out = m.run();
  Snapshot s{out.finish_cycle, out.app_finish[0], out.app_finish[1],
             out.bg_runs[1]};
  append(s, m.app_stats(0));
  append(s, m.app_stats(1));
  append(s, m.mem().l3().stats());
  sim::CacheStats l1_total, l2_total;
  for (unsigned c = 0; c < opt.machine.num_cores; ++c) {
    l1_total += m.mem().l1(c).stats();
    l2_total += m.mem().l2(c).stats();
  }
  append(s, l1_total);
  append(s, l2_total);
  return s;
}

std::vector<std::pair<std::string, Snapshot>> current_snapshots() {
  std::vector<std::pair<std::string, Snapshot>> out;
  for (const char* w : kWorkloads)
    out.emplace_back("solo/" + std::string{w}, snap_solo(w));
  for (const auto& [fg, bg] : kPairs)
    out.emplace_back("pair/" + std::string{fg} + "+" + bg, snap_pair(fg, bg));
  return out;
}

// clang-format off
const std::vector<std::pair<std::string, Snapshot>> kGolden = {
    {"solo/Stream",
     {1421188ull, 4952566ull, 950272ull, 98304ull, 65536ull, 104719ull,
      59121ull, 8565ull, 50556ull, 25ull, 50531ull, 3233984ull,
      0ull, 4378380ull, 4910721ull, 0ull, 129954ull}},
    {"solo/Bandit",
     {472552ull, 1639310ull, 150000ull, 37500ull, 0ull, 0ull,
      37500ull, 0ull, 37500ull, 0ull, 37500ull, 2400000ull,
      0ull, 1534314ull, 1640268ull, 0ull, 0ull}},
    {"solo/G-PR",
     {825273ull, 3301092ull, 1835055ull, 569391ull, 53248ull, 213818ull,
      408821ull, 150213ull, 258608ull, 249617ull, 8991ull, 575424ull,
      0ull, 1220303ull, 2460604ull, 490897ull, 273513ull}},
    {"solo/CIFAR",
     {5531905ull, 22127620ull, 33984512ull, 466944ull, 126976ull, 560179ull,
      33741ull, 3426ull, 30315ull, 4082ull, 26233ull, 1678912ull,
      0ull, 4017697ull, 4499834ull, 813855ull, 535640ull}},
    {"solo/fotonik3d",
     {1296603ull, 4303190ull, 7077888ull, 147456ull, 49152ull, 192548ull,
      4060ull, 371ull, 3689ull, 0ull, 3689ull, 236096ull,
      0ull, 1009264ull, 1213409ull, 0ull, 144503ull}},
    {"solo/swaptions",
     {1835521ull, 7341480ull, 9683200ull, 153600ull, 153600ull, 307188ull,
      12ull, 4ull, 8ull, 0ull, 8ull, 512ull,
      0ull, 2272ull, 3392ull, 0ull, 768ull}},
    {"solo/IRSmk",
     {428055ull, 1712220ull, 395692ull, 56304ull, 1564ull, 10884ull,
      46984ull, 22613ull, 24371ull, 0ull, 24371ull, 1559744ull,
      0ull, 1264128ull, 1494590ull, 192978ull, 21221ull}},
    {"solo/blackscholes",
     {200545ull, 802180ull, 989184ull, 2048ull, 4096ull, 6136ull,
      8ull, 4ull, 4ull, 0ull, 4ull, 256ull,
      0ull, 311ull, 1079ull, 9285ull, 1028ull}},
    {"solo/G-BFS",
     {240756ull, 963024ull, 595620ull, 300491ull, 10997ull, 278068ull,
      33420ull, 12549ull, 20871ull, 15337ull, 5534ull, 354176ull,
      0ull, 329192ull, 719466ull, 140975ull, 29585ull}},
    {"pair/CIFAR+fotonik3d",
     {8330514ull, 8330514ull, 7133645ull, 3ull, 33322056ull, 33984512ull,
      466944ull, 126976ull, 538382ull, 55538ull, 6255ull, 49283ull,
      4165ull, 45118ull, 2887552ull, 0ull, 11066238ull, 12242759ull,
      4954092ull, 518880ull, 33323350ull, 26283596ull, 547575ull, 182521ull,
      636021ull, 94075ull, 12784ull, 81291ull, 5ull, 81286ull,
      5202304ull, 0ull, 18041093ull, 21568677ull, 0ull, 491679ull,
      4170ull, 126404ull, 0ull, 0ull, 914877ull, 3334ull,
      285495ull, 0ull, 883031ull, 131488ull, 291372ull, 18125ull,
      947481ull, 946826ull, 306577ull, 16319ull, 19039ull, 130574ull,
      0ull, 0ull, 965551ull, 19039ull, 288387ull, 187507ull}},
    {"pair/G-PR+fotonik3d",
     {1970172ull, 1970172ull, 1820281ull, 1ull, 7880688ull, 1835057ull,
      569393ull, 53248ull, 212732ull, 409909ull, 150497ull, 259412ull,
      236783ull, 22629ull, 1448256ull, 0ull, 5414885ull, 6719642ull,
      875341ull, 271944ull, 7881121ull, 7524860ull, 156768ull, 52252ull,
      191578ull, 17442ull, 2183ull, 15259ull, 2ull, 15257ull,
      976448ull, 0ull, 3515294ull, 4222073ull, 0ull, 146422ull,
      236785ull, 37886ull, 0ull, 0ull, 211831ull, 8739ull,
      61007ull, 0ull, 312146ull, 414015ull, 92164ull, 13336ull,
      191520ull, 190253ull, 74713ull, 4489ull, 152680ull, 274671ull,
      0ull, 0ull, 412512ull, 50092ull, 66415ull, 50729ull}},
    {"pair/Stream+Bandit",
     {1771893ull, 1771893ull, 1051148ull, 1ull, 6057086ull, 950272ull,
      98304ull, 65536ull, 91444ull, 72396ull, 10484ull, 61912ull,
      507ull, 61405ull, 3929920ull, 0ull, 5479062ull, 6016592ull,
      0ull, 116959ull, 7089090ull, 273733ull, 68434ull, 0ull,
      0ull, 68434ull, 0ull, 68434ull, 0ull, 68434ull,
      4379776ull, 0ull, 6842489ull, 7038092ull, 0ull, 41299ull,
      507ull, 129839ull, 0ull, 0ull, 96875ull, 371ull,
      55712ull, 0ull, 59184ull, 107554ull, 32260ull, 33276ull,
      91485ull, 91444ull, 64443ull, 2474ull, 10484ull, 130346ull,
      0ull, 0ull, 102051ull, 10484ull, 62137ull, 6078ull}},
    {"pair/Stream+Stream",
     {2418154ull, 2418154ull, 0ull, 0ull, 7902393ull, 950272ull,
      98304ull, 65536ull, 68805ull, 95035ull, 13458ull, 81577ull,
      1ull, 81576ull, 5220864ull, 0ull, 7318421ull, 7888900ull,
      0ull, 94728ull, 9674462ull, 670442ull, 68218ull, 50492ull,
      15995ull, 102715ull, 4643ull, 98072ull, 2ull, 98070ull,
      6276480ull, 0ull, 9270600ull, 9673814ull, 0ull, 23504ull,
      3ull, 179646ull, 0ull, 0ull, 102926ull, 3ull,
      70504ull, 0ull, 57145ull, 109377ull, 27655ull, 88373ull,
      84829ull, 84800ull, 114497ull, 1537ull, 18101ull, 179649ull,
      0ull, 0ull, 102930ull, 18101ull, 73476ull, 78708ull}},
    {"pair/G-BFS+Stream",
     {552260ull, 552260ull, 0ull, 0ull, 2209040ull, 595617ull,
      300488ull, 10997ull, 276150ull, 35335ull, 12112ull, 23223ull,
      13566ull, 9657ull, 618048ull, 0ull, 1417429ull, 1869387ull,
      299632ull, 26798ull, 2210746ull, 270205ull, 24101ull, 23948ull,
      22540ull, 25509ull, 3116ull, 22393ull, 0ull, 22393ull,
      1433152ull, 0ull, 2045387ull, 2207357ull, 0ull, 30121ull,
      13566ull, 32050ull, 0ull, 0ull, 40440ull, 2894ull,
      15009ull, 0ull, 277520ull, 47069ull, 21170ull, 13775ull,
      34307ull, 31095ull, 24954ull, 1570ull, 15228ull, 45616ull,
      0ull, 0ull, 51925ull, 8368ull, 18565ull, 10108ull}},
};
// clang-format on

TEST(SimEquivalence, GoldenStatsBitIdentical) {
  const auto got = current_snapshots();
  if (std::getenv("COPERF_PRINT_GOLDEN") != nullptr) {
    std::cout << "const std::vector<std::pair<std::string, Snapshot>> "
                 "kGolden = {\n";
    for (const auto& [name, snap] : got) {
      std::cout << "    {\"" << name << "\",\n     {";
      for (std::size_t i = 0; i < snap.size(); ++i) {
        if (i != 0) std::cout << (i % 6 == 0 ? "ull,\n      " : "ull, ");
        std::cout << snap[i];
      }
      std::cout << "ull}},\n";
    }
    std::cout << "};\n";
    GTEST_SKIP() << "golden table printed, not compared";
  }
  ASSERT_EQ(got.size(), kGolden.size())
      << "scenario list changed -- regenerate the golden table";
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].first, kGolden[s].first);
    ASSERT_EQ(got[s].second.size(), kGolden[s].second.size())
        << got[s].first;
    for (std::size_t i = 0; i < got[s].second.size(); ++i)
      EXPECT_EQ(got[s].second[i], kGolden[s].second[i])
          << got[s].first << " field #" << i
          << " -- the hot-path refactor changed simulated behavior";
  }
}

// ---------------------------------------------------------------------
// Run-cache key semantics (fast tier; see CMakeLists test split).

harness::RunOptions cache_test_options() {
  harness::RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = wl::SizeClass::Tiny;
  o.threads = 1;
  o.seed = 77;
  return o;
}

TEST(RunCacheKey, KeyCoversEverySimulationInput) {
  using harness::GroupSpec;
  using harness::RunCache;
  const harness::RunOptions base = cache_test_options();
  const GroupSpec stream = GroupSpec::solo("Stream", base.threads);
  const std::string k = RunCache::group_key(stream, base);
  EXPECT_EQ(k, RunCache::group_key(stream, base))
      << "same options must produce the same key";

  harness::RunOptions seed = base;
  seed.seed = 78;
  EXPECT_NE(k, RunCache::group_key(stream, seed)) << "seed change must miss";

  harness::RunOptions mach = base;
  mach.machine.l3.size_bytes /= 2;
  EXPECT_NE(k, RunCache::group_key(stream, mach))
      << "machine-config change must miss";

  harness::RunOptions pf = base;
  pf.machine.prefetch.l2_stream = false;
  EXPECT_NE(k, RunCache::group_key(stream, pf))
      << "prefetch-mask change must miss";

  EXPECT_NE(k, RunCache::group_key(GroupSpec::solo("Bandit", base.threads),
                                   base));
  EXPECT_NE(RunCache::group_key(GroupSpec::pair("Stream", "Bandit",
                                                base.threads, base.bg_threads),
                                base),
            RunCache::group_key(GroupSpec::pair("Bandit", "Stream",
                                                base.threads, base.bg_threads),
                                base))
      << "fg/bg are not symmetric";
}

TEST(RunCacheKey, HitReturnsIdenticalRunResult) {
  auto& cache = harness::RunCache::instance();
  // Park the disk layer (CI sets COPERF_RUN_CACHE_DIR): the hit/miss
  // accounting below must see exactly this process' simulations.
  const std::string saved_disk = cache.disk_dir();
  cache.set_disk_dir("");
  cache.clear();
  cache.reset_stats();
  const harness::RunOptions opt = cache_test_options();

  const harness::RunResult first = harness::run_solo("Stream", opt);
  const auto after_first = cache.stats();
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_first.hits, 0u);

  const harness::RunResult second = harness::run_solo("Stream", opt);
  const auto after_second = cache.stats();
  EXPECT_EQ(after_second.misses, 1u) << "second run must not re-simulate";
  EXPECT_EQ(after_second.hits, 1u);
  harness::expect_run_eq(first, second);

  // A different seed is a different simulation.
  harness::RunOptions other = opt;
  other.seed = opt.seed + 1;
  (void)harness::run_solo("Stream", other);
  EXPECT_EQ(cache.stats().misses, 2u);
  cache.set_disk_dir(saved_disk);
}

TEST(RunCacheKey, DiskLayerRoundTripsAcrossMemoryClear) {
  auto& cache = harness::RunCache::instance();
  const auto dir =
      (std::filesystem::temp_directory_path() / "coperf_runcache_test")
          .string();
  cache.set_disk_dir(dir);
  cache.clear_disk();
  cache.clear();
  cache.reset_stats();
  const harness::RunOptions opt = cache_test_options();

  const harness::RunResult first = harness::run_solo("Bandit", opt);
  // A serving foreground (non-empty latency buckets) next to a looping
  // batch background (runs_completed > 0).
  const harness::GroupSpec pair =
      harness::GroupSpec::pair("kvserve", "Bandit", 1, 1);
  const harness::GroupResult g1 = harness::run_group(pair, opt);
  ASSERT_GT(g1.members[0].latency.count, 0u);
  ASSERT_GT(g1.runs_completed[1], 0u);
  cache.clear();  // drop memory; the entries must come back from disk
  const harness::RunResult second = harness::run_solo("Bandit", opt);
  const harness::GroupResult g2 = harness::run_group(pair, opt);
  EXPECT_EQ(cache.stats().disk_hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  harness::expect_run_eq(first, second);
  harness::expect_group_eq(g1, g2);

  cache.clear_disk();
  cache.set_disk_dir("");
  cache.clear();
}

TEST(RunCacheKey, CorruptDiskEntryQuarantinesAndMisses) {
  auto& cache = harness::RunCache::instance();
  const auto dir =
      std::filesystem::temp_directory_path() / "coperf_runcache_corrupt_test";
  std::filesystem::remove_all(dir);
  cache.set_disk_dir(dir.string());
  cache.clear();
  cache.reset_stats();
  const harness::RunOptions opt = cache_test_options();
  const harness::RunResult first = harness::run_solo("Stream", opt);

  // Tear the entry the way a killed writer used to: header and key
  // intact, payload truncated mid-stream with a stale checksum.
  std::filesystem::path entry;
  for (const auto& e : std::filesystem::directory_iterator{dir})
    if (e.path().extension() == ".run") entry = e.path();
  ASSERT_FALSE(entry.empty());
  {
    std::ifstream in{entry};
    std::string header, key;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, key));
    in.close();
    std::ofstream out{entry, std::ios::trunc};
    out << header << '\n'
        << key << '\n'
        << "sum 0000000000000000\nmembers 1\n";
  }

  cache.clear();  // memory dropped: the torn disk entry is the only copy
  const harness::RunResult second = harness::run_solo("Stream", opt);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.corrupt, 1u) << "the torn entry must be flagged";
  EXPECT_EQ(stats.disk_hits, 0u) << "a torn entry must never be served";
  EXPECT_EQ(stats.misses, 2u) << "corrupt entries degrade to misses";
  harness::expect_run_eq(first, second);

  bool quarantined = false, restored = false;
  for (const auto& e : std::filesystem::directory_iterator{dir}) {
    quarantined = quarantined || e.path().extension() == ".corrupt";
    restored = restored || e.path().extension() == ".run";
  }
  EXPECT_TRUE(quarantined) << "the bad bytes must be moved aside";
  EXPECT_TRUE(restored) << "the miss must republish a fresh entry";

  // The republished entry is healthy: the third run is a disk hit.
  cache.clear();
  (void)harness::run_solo("Stream", opt);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.stats().corrupt, 1u);

  cache.clear_disk();
  std::filesystem::remove_all(dir);
  cache.set_disk_dir("");
  cache.clear();
}

/// FNV-1a, the run cache's payload checksum ("sum %016x" line).
std::string checksum_line(const std::string& payload) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "sum %016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(RunCacheKey, ChecksummedButUnreadableEntryQuarantines) {
  auto& cache = harness::RunCache::instance();
  const auto dir = std::filesystem::temp_directory_path() /
                   "coperf_runcache_unreadable_test";
  std::filesystem::remove_all(dir);
  cache.set_disk_dir(dir.string());
  cache.clear();
  cache.reset_stats();
  const harness::RunOptions opt = cache_test_options();
  const harness::RunResult first = harness::run_solo("Stream", opt);

  // Header, key and checksum are all valid; only the JSON body is cut
  // short, so the entry fails at the parser, not at the checksum.
  std::filesystem::path entry;
  for (const auto& e : std::filesystem::directory_iterator{dir})
    if (e.path().extension() == ".run") entry = e.path();
  ASSERT_FALSE(entry.empty());
  {
    std::ifstream in{entry};
    std::string header, key, sum, body;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, key));
    ASSERT_TRUE(std::getline(in, sum));
    ASSERT_TRUE(std::getline(in, body));
    in.close();
    const std::string truncated = body.substr(0, body.size() / 2) + '\n';
    std::ofstream out{entry, std::ios::trunc};
    out << header << '\n'
        << key << '\n'
        << checksum_line(truncated) << '\n'
        << truncated;
  }

  cache.clear();
  const harness::RunResult second = harness::run_solo("Stream", opt);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.corrupt, 1u) << "the unreadable entry must be flagged";
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.misses, 2u) << "it must be re-simulated";
  harness::expect_run_eq(first, second);
  bool quarantined = false;
  for (const auto& e : std::filesystem::directory_iterator{dir})
    quarantined = quarantined || e.path().extension() == ".corrupt";
  EXPECT_TRUE(quarantined) << "the bad bytes must be moved aside";

  cache.clear_disk();
  std::filesystem::remove_all(dir);
  cache.set_disk_dir("");
  cache.clear();
}

// ---------------------------------------------------------------------
// Persistent worker pool (fast tier).

TEST(ParallelPool, RunsEveryIndexOnceAndReusesWorkers) {
  std::vector<std::atomic<int>> seen(501);
  harness::parallel_for(seen.size(), 4,
                        [&](std::size_t i) { seen[i].fetch_add(1); });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
  const unsigned after_first = harness::pool_size();
  EXPECT_GE(after_first, 3u) << "pool must hold persistent workers";

  std::atomic<std::size_t> sum{0};
  harness::parallel_for(1000, 4, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 1000u * 999u / 2);
  EXPECT_EQ(harness::pool_size(), after_first)
      << "second sweep must reuse the pool, not spawn a new one";
}

TEST(ParallelPool, ThrowMidPlanPropagatesFirstErrorAndPoolSurvives) {
  // Warm the pool so the failure exercises persistent workers.
  harness::parallel_for(64, 4, [](std::size_t) {});
  const unsigned workers_before = harness::pool_size();

  std::atomic<std::size_t> ran{0};
  try {
    harness::parallel_for(5000, 4, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 137) throw std::runtime_error{"trial 137 went sideways"};
      // Slow the healthy trials slightly so the failure flag is
      // guaranteed to land before the sweep could drain on its own.
      for (volatile int spin = 0; spin < 64; ++spin) {
      }
    });
    FAIL() << "the worker's exception must reach the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trial 137 went sideways");
  }
  EXPECT_LT(ran.load(), 5000u)
      << "a failed sweep must stop claiming work, not run to completion";

  // The pool must come back clean: same workers, full sweeps complete.
  std::atomic<std::size_t> sum{0};
  harness::parallel_for(2000, 4, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 2000u * 1999u / 2);
  EXPECT_EQ(harness::pool_size(), workers_before)
      << "a thrown trial must not wedge or regrow the pool";
}

TEST(ParallelPool, ExceptionPropagatesAndStopsTheSweep) {
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      harness::parallel_for(10'000, 4,
                            [&](std::size_t i) {
                              if (i == 3) throw std::runtime_error{"boom"};
                              ran.fetch_add(1);
                            }),
      std::runtime_error);
  EXPECT_LT(ran.load(), 10'000u) << "failed sweep must stop claiming work";
}

TEST(ParallelPool, LaneCountHonoursTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  const unsigned allowed = static_cast<unsigned>(CPU_COUNT(&saved));
  EXPECT_EQ(harness::lane_count(1000, 0), allowed);
  EXPECT_EQ(harness::lane_count(1000, 3), 3u) << "an explicit count wins";
  EXPECT_EQ(harness::lane_count(2, 0), std::min(allowed, 2u));

  // Narrow this thread to its lowest allowed CPU, as `taskset -c` would.
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const unsigned narrowed = harness::lane_count(1000, 0);
  const unsigned explicit_count = harness::lane_count(1000, 4);
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(narrowed, 1u);
  EXPECT_EQ(explicit_count, 4u);
}

}  // namespace
}  // namespace coperf
