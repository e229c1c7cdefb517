// Experiment manifests: an executed plan serializes to JSON and loads
// back into a spec-addressable ResultSet without re-running anything.
// Round-trip is exact (second serialization is byte-identical), keys
// are integrity-checked against the deserialized specs, and malformed
// or tampered documents are rejected.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/manifest.hpp"
#include "harness/plan.hpp"
#include "sim/config.hpp"
#include "wl/workload.hpp"

namespace coperf::harness {
namespace {

RunOptions tiny_base() {
  RunOptions opt;
  opt.machine = sim::MachineConfig::scaled();
  opt.size = wl::SizeClass::Tiny;
  opt.seed = 13;
  opt.sample_window = 50'000;
  return opt;
}

/// A small but representative plan: a solo, a group with a serving
/// member (non-empty latency distribution), and a prefetch sweep
/// (trials whose MachineConfig differs from the base -- the reason
/// manifests store fully resolved per-trial options).
ExperimentPlan make_plan() {
  ExperimentPlan plan{tiny_base()};
  plan.add_solo({"Bandit", 2, 1});
  GroupSpec g;
  g.members = {{"kvserve", 2}, {"Stream", 2}};
  plan.add_group(g, 1);
  plan.add_prefetch({"Stream", 2});
  return plan;
}

TEST(Manifest, RoundTripIsExactAndSpecAddressable) {
  const ExperimentPlan plan = make_plan();
  const ResultSet rs = plan.execute();
  const std::string doc = manifest_json(plan, rs);

  std::istringstream is{doc};
  const ResultSet loaded = load_manifest(is);
  EXPECT_EQ(loaded.size(), rs.size());

  // Spec accessors work identically over the loaded set.
  const RunResult solo = rs.solo({"Bandit", 2, 1});
  const RunResult lsolo = loaded.solo({"Bandit", 2, 1});
  EXPECT_EQ(solo.cycles, lsolo.cycles);
  EXPECT_EQ(solo.stats.instructions, lsolo.stats.instructions);
  EXPECT_EQ(solo.stats.l3_misses, lsolo.stats.l3_misses);
  EXPECT_DOUBLE_EQ(solo.metrics.cpi, lsolo.metrics.cpi);

  GroupSpec g;
  g.members = {{"kvserve", 2}, {"Stream", 2}};
  const GroupResult gr = rs.group(g, 1);
  const GroupResult lgr = loaded.group(g, 1);
  ASSERT_EQ(lgr.members.size(), 2u);
  EXPECT_EQ(gr.members[0].cycles, lgr.members[0].cycles);
  // The per-request latency distribution round-trips bit-identically.
  EXPECT_EQ(gr.members[0].latency, lgr.members[0].latency);
  EXPECT_GT(lgr.members[0].latency.count, 0u);
  EXPECT_TRUE(lgr.members[1].latency.empty());

  const PrefetchSensitivity pf = rs.prefetch({"Stream", 2});
  const PrefetchSensitivity lpf = loaded.prefetch({"Stream", 2});
  EXPECT_EQ(pf.cycles_on, lpf.cycles_on);
  EXPECT_EQ(pf.cycles_off, lpf.cycles_off);
  EXPECT_DOUBLE_EQ(pf.speedup_ratio, lpf.speedup_ratio);

  // Exactness: re-serializing the loaded set reproduces the document
  // byte for byte (regions are never serialized; metrics are a pure
  // function of the stats).
  EXPECT_EQ(manifest_json(plan, loaded), doc);
}

TEST(Manifest, RejectsVersionMismatchTamperingAndGarbage) {
  const ExperimentPlan plan = make_plan();
  const ResultSet rs = plan.execute();  // cache-served: nothing re-runs
  const std::string doc = manifest_json(plan, rs);

  {  // wrong version
    std::string bad = doc;
    const auto pos = bad.find("\"coperf_manifest\": 1");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, std::string{"\"coperf_manifest\": 1"}.size(),
                "\"coperf_manifest\": 999");
    std::istringstream is{bad};
    EXPECT_THROW(load_manifest(is), std::runtime_error);
  }
  {  // tampered trial options: the stored key no longer matches the
     // key recomputed from the deserialized spec (rfind lands inside
     // the last trial, not the base-options object)
    std::string bad = doc;
    const auto pos = bad.rfind("\"seed\": 13");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, std::string{"\"seed\": 13"}.size(), "\"seed\": 14");
    std::istringstream is{bad};
    EXPECT_THROW(load_manifest(is), std::runtime_error);
  }
  {  // not JSON at all
    std::istringstream is{"coperf-run-cache v4"};
    EXPECT_THROW(load_manifest(is), std::runtime_error);
  }
  {  // truncated document
    std::istringstream is{doc.substr(0, doc.size() / 2)};
    EXPECT_THROW(load_manifest(is), std::runtime_error);
  }
}

// Manifests are outside input: a counter must be a plain unsigned
// 64-bit integer, never a negative, fractional or overflowing number
// silently wrapped or truncated into one.
TEST(Manifest, RejectsCountersThatAreNotUnsigned64BitIntegers) {
  const ExperimentPlan plan = make_plan();
  const ResultSet rs = plan.execute();  // cache-served: nothing re-runs
  const std::string doc = manifest_json(plan, rs);
  const std::string field = "\"cycles\": ";
  const auto pos = doc.find(field);
  ASSERT_NE(pos, std::string::npos);
  const auto digits = pos + field.size();
  const auto len = doc.find_first_not_of("0123456789", digits) - digits;
  for (const char* bad : {"-1", "1.5", "1e3", "18446744073709551616"}) {
    std::string tampered = doc;
    tampered.replace(digits, len, bad);
    std::istringstream is{tampered};
    EXPECT_THROW(load_manifest(is), std::runtime_error) << bad;
  }
  {  // a \u escape without four hex digits in a workload name
    std::string tampered = doc;
    const auto name = tampered.find("\"Bandit\"");
    ASSERT_NE(name, std::string::npos);
    tampered.replace(name + 1, 1, "\\u00zB");
    std::istringstream is{tampered};
    EXPECT_THROW(load_manifest(is), std::runtime_error);
  }
}

}  // namespace
}  // namespace coperf::harness
