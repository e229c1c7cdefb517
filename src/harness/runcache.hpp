// Content-addressed cache of simulation results.
//
// Every coperf simulation is deterministic: the full GroupResult is a
// pure function of (the group's members -- workload, threads, size,
// restart semantics -- the seed, the machine configuration, the
// sampling window, and the cycle limit). The cache keys on exactly
// those fields, so a hit returns a bit-identical result without
// re-simulating. Solo runs and pairs are the 1- and 2-member special
// cases and share the same store, which is what lets an
// ExperimentPlan dedupe a fig5 matrix against the predictor's solo
// profiles and lets a second matrix build complete with zero new
// simulations.
//
// The in-memory layer is always available and process-local. Disk
// persistence (sharing results across bench invocations) is opt-in:
// set COPERF_RUN_CACHE_DIR (the CI jobs point it under the workspace)
// or call set_disk_dir(). Entries are one text file per key under that
// directory, named by a 64-bit FNV-1a hash with the full key stored
// inside and verified on load, so hash collisions degrade to misses.
// Entries are published by temp-file + atomic rename and carry a
// payload checksum; a corrupt or truncated entry (a torn write, a
// stray editor, an old format version) is treated as a miss and
// quarantined aside as <entry>.corrupt (runcache.corrupt counts them)
// instead of poisoning every later run.
#pragma once

#include <cstdint>
#include <string>

#include "harness/group.hpp"
#include "harness/runner.hpp"

namespace coperf::harness {

class RunCache {
 public:
  /// Process-wide instance. Honors COPERF_RUN_CACHE=0 (disable) and
  /// COPERF_RUN_CACHE_DIR (enable disk persistence) at first use.
  static RunCache& instance();

  struct Stats {
    std::uint64_t hits = 0;        ///< served from memory
    std::uint64_t disk_hits = 0;   ///< served from the disk layer
    std::uint64_t misses = 0;      ///< simulated for real
    /// Disk entries that failed checksum/format validation: counted as
    /// misses above and quarantined aside as <entry>.corrupt.
    std::uint64_t corrupt = 0;
  };
  Stats stats() const;
  void reset_stats();

  /// Drops every in-memory entry (disk files are left alone; use
  /// clear_disk() for those).
  void clear();
  /// Removes all entry files from the disk layer (no-op when disabled).
  void clear_disk();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Empty string disables the disk layer.
  void set_disk_dir(std::string dir);
  const std::string& disk_dir() const { return disk_dir_; }

  // --- used by run_group (and through it run_solo) --------------------
  bool lookup(const std::string& key, GroupResult* out);
  void store(const std::string& key, const GroupResult& r);
  /// Stats-neutral membership probe (memory or disk) -- lets a plan
  /// count its residue without charging hits/misses.
  bool contains(const std::string& key) const;

  /// Canonical key string. Two (spec, options) pairs produce the same
  /// key iff every simulation-relevant field matches.
  static std::string group_key(const GroupSpec& spec, const RunOptions& opt);
  /// Fingerprint of every MachineConfig field that affects simulation.
  static std::string machine_fingerprint(const sim::MachineConfig& m);

 private:
  RunCache();
  struct Impl;
  Impl* impl_;  // leaked with the singleton; keeps the header light
  bool enabled_ = true;
  std::string disk_dir_;
};

}  // namespace coperf::harness
