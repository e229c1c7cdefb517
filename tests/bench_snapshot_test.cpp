// bench/bench_common.hpp snapshot rules: BENCH_*.json snapshots land at
// the repo root found by walking up to the first ancestor holding BOTH
// ROADMAP.md and CMakeLists.txt, COPERF_BENCH_SNAPSHOT_DIR overrides
// the destination (empty value ignored), and write_snapshot emits the
// document newline-terminated. The CI perf gate diffs these files, so
// "which directory did the bench write to" is load-bearing.
//
// Also the bench output path itself: rows_csv turns a record's row
// array into CSV, and every committed snapshot is exactly what
// json::write prints for it, so a hand edit or a layout drift fails
// here rather than only in CI's snapshot diffs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "util/json.hpp"

namespace coperf::bench {
namespace {

namespace fs = std::filesystem;

/// Scoped cwd + COPERF_BENCH_SNAPSHOT_DIR sandbox: saves both, restores
/// on destruction, so the suite cannot leak state into other tests.
struct SnapshotSandbox {
  SnapshotSandbox() : cwd(fs::current_path()) {
    if (const char* env = std::getenv("COPERF_BENCH_SNAPSHOT_DIR"))
      saved_env = env;
    unsetenv("COPERF_BENCH_SNAPSHOT_DIR");
    root = fs::temp_directory_path() /
           ("coperf_snapshot_test_" + std::to_string(::getpid()));
    fs::remove_all(root);
    fs::create_directories(root);
  }
  ~SnapshotSandbox() {
    std::error_code ec;
    fs::current_path(cwd, ec);
    if (saved_env.has_value())
      setenv("COPERF_BENCH_SNAPSHOT_DIR", saved_env->c_str(), 1);
    else
      unsetenv("COPERF_BENCH_SNAPSHOT_DIR");
    fs::remove_all(root, ec);
  }
  fs::path cwd;
  std::optional<std::string> saved_env;
  fs::path root;
};

void touch(const fs::path& p) { std::ofstream{p} << "x\n"; }

std::string slurp(const fs::path& p) {
  std::ifstream in{p};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchSnapshot, WalksUpToTheFirstDirectoryWithBothMarkers) {
  SnapshotSandbox sb;
  // root/repo holds both markers; root/repo/a holds only ROADMAP.md
  // (must NOT terminate the walk); the cwd is two levels deeper.
  const fs::path repo = sb.root / "repo";
  fs::create_directories(repo / "a" / "b");
  touch(repo / "ROADMAP.md");
  touch(repo / "CMakeLists.txt");
  touch(repo / "a" / "ROADMAP.md");  // half a marker: keep walking
  fs::current_path(repo / "a" / "b");

  const auto dir = snapshot_dir();
  ASSERT_TRUE(dir.has_value());
  EXPECT_EQ(fs::canonical(*dir), fs::canonical(repo));
}

TEST(BenchSnapshot, ResolvesNothingWhenNoAncestorQualifies) {
  SnapshotSandbox sb;
  fs::create_directories(sb.root / "bare");
  fs::current_path(sb.root / "bare");
  EXPECT_FALSE(snapshot_dir().has_value());
}

TEST(BenchSnapshot, EnvOverrideWinsOverTheWalkAndEmptyIsIgnored) {
  SnapshotSandbox sb;
  const fs::path repo = sb.root / "repo";
  const fs::path custom = sb.root / "custom";
  fs::create_directories(repo);
  fs::create_directories(custom);
  touch(repo / "ROADMAP.md");
  touch(repo / "CMakeLists.txt");
  fs::current_path(repo);

  setenv("COPERF_BENCH_SNAPSHOT_DIR", custom.string().c_str(), 1);
  auto dir = snapshot_dir();
  ASSERT_TRUE(dir.has_value());
  EXPECT_EQ(*dir, custom);

  // Empty override is "unset", not "write into ''": the walk resumes.
  setenv("COPERF_BENCH_SNAPSHOT_DIR", "", 1);
  dir = snapshot_dir();
  ASSERT_TRUE(dir.has_value());
  EXPECT_EQ(fs::canonical(*dir), fs::canonical(repo));
}

TEST(BenchSnapshot, WriteSnapshotEmitsNewlineTerminatedDocument) {
  SnapshotSandbox sb;
  const fs::path custom = sb.root / "out";
  fs::create_directories(custom);
  setenv("COPERF_BENCH_SNAPSHOT_DIR", custom.string().c_str(), 1);

  write_snapshot("unit", "{\"k\": 1}");
  EXPECT_EQ(slurp(custom / "BENCH_unit.json"), "{\"k\": 1}\n");

  // Already-terminated documents must not grow a second newline.
  write_snapshot("unit", "{\"k\": 2}\n");
  EXPECT_EQ(slurp(custom / "BENCH_unit.json"), "{\"k\": 2}\n");
}

TEST(BenchCsv, HeaderIsTheFirstRowsKeysAndNamesAreQuoted) {
  using namespace json;
  const Value rows = array(
      {object({{"policy", str("a,b")}, {"x", real(0.5)}, {"n", integer(3)}}),
       object({{"policy", str("say \"hi\"")},
               {"x", real(0.1)},
               {"n", integer(4)}}),
       object({{"n", integer(5)}, {"x", real(2)}, {"policy", str("ok")}})});
  EXPECT_EQ(rows_csv(rows),
            "policy,x,n\n"
            "\"a,b\",0.5,3\n"
            "\"say \"\"hi\"\"\",0.10000000000000001,4\n"
            "ok,2,5\n");
  EXPECT_EQ(rows_csv(array()), "");
}

TEST(BenchCsv, RowsMustCarryExactlyTheHeaderKeys) {
  using namespace json;
  const Value first = object({{"policy", str("a")}, {"x", real(1)}});
  const Value missing = array({first, object({{"policy", str("b")}})});
  const Value extra = array(
      {first,
       object({{"policy", str("b")}, {"x", real(2)}, {"y", real(3)}})});
  const Value renamed =
      array({first, object({{"policy", str("b")}, {"z", real(2)}})});
  const Value nested =
      array({object({{"policy", str("a")}, {"x", array({real(1)})}})});
  EXPECT_THROW(rows_csv(missing), std::runtime_error);
  EXPECT_THROW(rows_csv(extra), std::runtime_error);
  EXPECT_THROW(rows_csv(renamed), std::runtime_error);
  EXPECT_THROW(rows_csv(nested), std::runtime_error);
  EXPECT_THROW(rows_csv(object()), std::runtime_error);
}

TEST(BenchSnapshot, CommittedSnapshotsAreWhatTheWriterPrints) {
  const auto dir = snapshot_dir();
  if (!dir) GTEST_SKIP() << "no repo root above " << fs::current_path();
  for (const char* name : {"cluster_regret", "fleet_throughput",
                           "serving_tail", "sim_throughput"})
    EXPECT_TRUE(fs::exists(*dir / ("BENCH_" + std::string{name} + ".json")))
        << name << " missing from " << *dir;
  for (const auto& entry : fs::directory_iterator{*dir}) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json")
      continue;
    const std::string text = slurp(entry.path());
    EXPECT_EQ(json::write(json::parse(text)), text) << file;
  }
}

}  // namespace
}  // namespace coperf::bench
