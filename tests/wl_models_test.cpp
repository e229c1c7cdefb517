// Behavioural tests for the non-graph workload models: every model
// must run to completion on a tiny machine, and its memory-system
// signature must match its paper characterization (bandwidth class,
// cache locality, chain-vs-streaming, sync-boundedness).
#include <gtest/gtest.h>

#include "harness/runner.hpp"
#include "wl/registry.hpp"

namespace coperf::wl {
namespace {

harness::RunOptions tiny_opts(unsigned threads = 4) {
  harness::RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = SizeClass::Tiny;
  o.threads = threads;
  o.sample_window = 50'000;
  return o;
}

/// Every workload (incl. minis) completes a Tiny run within the cycle
/// limit and retires a sane number of instructions.
class AllModelsRun : public ::testing::TestWithParam<const char*> {};

TEST_P(AllModelsRun, CompletesAndRetiresWork) {
  const auto r = harness::run_solo(GetParam(), tiny_opts());
  EXPECT_FALSE(r.hit_cycle_limit) << GetParam();
  EXPECT_GT(r.cycles, 1000u);
  EXPECT_GT(r.stats.instructions, 1000u);
  EXPECT_GT(r.stats.loads + r.stats.stores, 0u);
  EXPECT_GT(r.footprint_bytes, 0u);
  EXPECT_EQ(r.threads, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    Everything, AllModelsRun,
    ::testing::Values("G-PR", "G-BFS", "G-BC", "G-SSSP", "G-CC", "P-PR",
                      "P-CC", "P-SSSP", "CIFAR", "MNIST", "LSTM", "ATIS",
                      "blackscholes", "freqmine", "swaptions", "streamcluster",
                      "lulesh", "IRSmk", "AMG2006", "mcf", "fotonik3d",
                      "deepsjeng", "nab", "xalancbmk", "cactuBSSN", "Stream",
                      "Bandit"));

TEST(ModelDeterminism, SameSeedSameCycles) {
  const auto a = harness::run_solo("CIFAR", tiny_opts());
  const auto b = harness::run_solo("CIFAR", tiny_opts());
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.stats.instructions, b.stats.instructions);
  EXPECT_EQ(a.stats.l3_misses, b.stats.l3_misses);
}

TEST(ModelSignature, StreamOutpacesBanditInBandwidth) {
  const auto stream = harness::run_solo("Stream", tiny_opts());
  const auto bandit = harness::run_solo("Bandit", tiny_opts());
  EXPECT_GT(stream.avg_bw_gbs, bandit.avg_bw_gbs)
      << "prefetch-friendly STREAM must beat conflict-missing Bandit";
  EXPECT_GT(stream.avg_bw_gbs, 10.0);
}

TEST(ModelSignature, BanditMissesEverywhere) {
  const auto r = harness::run_solo("Bandit", tiny_opts());
  const double miss_rate =
      static_cast<double>(r.stats.l3_misses) /
      static_cast<double>(r.stats.loads);
  EXPECT_GT(miss_rate, 0.8) << "Bandit accesses must defeat all caches";
}

TEST(ModelSignature, ComputeBoundAppsHaveLowBandwidth) {
  for (const char* name : {"swaptions", "deepsjeng", "nab"}) {
    const auto r = harness::run_solo(name, tiny_opts());
    EXPECT_LT(r.avg_bw_gbs, 4.0) << name << " must be co-run friendly";
  }
}

TEST(ModelSignature, StreamingAppsHaveHighBandwidth) {
  for (const char* name : {"fotonik3d", "IRSmk"}) {
    const auto r = harness::run_solo(name, tiny_opts());
    EXPECT_GT(r.avg_bw_gbs, 8.0) << name << " must be an offender-class app";
  }
}

TEST(ModelSignature, ChainWorkloadsStall) {
  const auto r = harness::run_solo("mcf", tiny_opts());
  EXPECT_GT(r.stats.cpi(), 1.5) << "pointer chasing must hurt CPI";
  EXPECT_GT(r.stats.llc_mpki(), 1.0);
}

TEST(ModelSignature, AtisIsBarrierBound) {
  const auto r = harness::run_solo("ATIS", tiny_opts(4));
  const double barrier_share =
      static_cast<double>(r.stats.barrier_wait_cycles) /
      static_cast<double>(r.stats.cycles);
  EXPECT_GT(barrier_share, 0.3)
      << "ATIS at 4 threads must spend heavily in barriers (paper: ~80%)";
}

TEST(ModelSignature, AmgHasSerialPhases) {
  const auto r = harness::run_solo("AMG2006", tiny_opts(4));
  bool found_serial = false;
  for (const auto& region : r.regions)
    if (region.region.find("setup") != std::string::npos) found_serial = true;
  EXPECT_TRUE(found_serial) << "AMG must report its serial setup region";
}

TEST(ModelRegions, HotRegionsAreTagged) {
  const auto ppr = harness::run_solo("P-PR", tiny_opts());
  bool has_gather = false;
  for (const auto& region : ppr.regions)
    if (region.region.find("gather") != std::string::npos) has_gather = true;
  EXPECT_TRUE(has_gather) << "P-PR must attribute cycles to gather()";

  const auto fot = harness::run_solo("fotonik3d", tiny_opts());
  bool has_uus = false;
  for (const auto& region : fot.regions)
    if (region.region.find("UUS") != std::string::npos) has_uus = true;
  EXPECT_TRUE(has_uus) << "fotonik3d must attribute cycles to UUS";
}

TEST(ModelFootprints, LlcClassesAreRespected) {
  // Streaming offenders need footprints well beyond the scaled LLC at
  // the default (Small) size class; checked at construction time.
  const std::size_t llc = sim::MachineConfig::scaled().l3.size_bytes;
  const AppParams p{0, 4, SizeClass::Small, 1};
  auto& reg = Registry::instance();
  EXPECT_GT(reg.create("fotonik3d", p)->footprint_bytes(), 2 * llc);
  EXPECT_GT(reg.create("Stream", p)->footprint_bytes(), 2 * llc);
  EXPECT_GT(reg.create("G-CC", p)->footprint_bytes(), llc);
  EXPECT_LT(reg.create("swaptions", p)->footprint_bytes(), llc);
}

TEST(ModelVerify, NonGraphModelsReportSuccess) {
  // Ghost-traffic models have no algorithmic output to check; their
  // verify() must simply succeed after a run.
  auto model = Registry::instance().create(
      "Stream", AppParams{0, 2, SizeClass::Tiny, 1});
  EXPECT_EQ(model->verify(), "");
}

}  // namespace
}  // namespace coperf::wl
