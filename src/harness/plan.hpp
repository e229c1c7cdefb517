// Plan-based experiment API: describe a *set* of runs first, execute
// once, read results by spec.
//
// The paper's methodology is "run these experiments, report these
// tables". An ExperimentPlan is that description as a value: trial
// specs (solo / N-way group / scalability sweep / prefetch sweep /
// full co-run matrix) are collected, each expanded into concrete
// trials, deduplicated structurally (two specs that expand to the
// same simulation share one trial) AND against the content-addressed
// RunCache (trials with cached results are served without
// simulating). execute() fans the residue out over the persistent
// parallel_for pool with an optional progress callback and returns a
// ResultSet addressable by the same specs:
//
//   ExperimentPlan plan{opts};
//   MatrixSpec fig5{subset, /*reps=*/3};
//   plan.add_matrix(fig5);
//   for (const auto& w : subset) plan.add_solo({w, 4, 3});   // free: deduped
//   ResultSet rs = plan.execute();
//   CorunMatrix m = rs.matrix(fig5);
//   RunResult solo = rs.solo({subset[0], 4, 3});
//
// A plan is the one way to run an experiment set and read its medians:
// every bench binary and example is "build plan -> execute -> emit
// report". run_group()/run_solo() (harness/group.hpp, runner.hpp) run
// one trial.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/group.hpp"
#include "harness/matrix.hpp"
#include "harness/prefetch_study.hpp"
#include "harness/runner.hpp"
#include "harness/scalability.hpp"

namespace coperf::harness {

/// One workload solo at a fixed thread count, median-of-reps (seeds
/// seed+0..reps-1, ranked by cycles; see ResultSet::group).
struct SoloSpec {
  std::string workload;
  unsigned threads = 4;
  unsigned reps = 1;
};

/// Thread-scalability sweep, 1..max_threads (one run per count).
struct SweepSpec {
  std::string workload;
  unsigned max_threads = 8;
};

/// Prefetchers all-on vs all-off at a fixed thread count.
struct PrefetchSpec {
  std::string workload;
  unsigned threads = 4;
};

/// The full fg x bg co-run matrix over `subset` (empty = all
/// applications), median-of-reps per cell. When `solo_cycles` is
/// non-empty (one entry per subset workload, same order) the solo
/// baseline trials are skipped and those cycles normalize the matrix.
struct MatrixSpec {
  std::vector<std::string> subset;
  unsigned reps = 3;
  std::vector<sim::Cycle> solo_cycles;
};

/// One concrete simulation of a plan: a group spec plus fully resolved
/// options, identified by its RunCache key.
struct Trial {
  GroupSpec group;
  RunOptions opt;
  std::string key;
};

/// Executed plan results, addressable by the specs that built the plan.
/// Accessors throw std::out_of_range for specs the plan did not
/// contain.
class ResultSet {
 public:
  std::size_t size() const { return results_.size(); }
  bool contains(const std::string& key) const {
    return results_.count(key) != 0;
  }
  /// Raw access by RunCache key (see RunCache::group_key).
  const GroupResult& at(const std::string& key) const;

  /// Median-of-reps group result for a spec added via add_group(): of
  /// the runs at seeds seed+0..reps-1, the one ranked middle by member
  /// 0's cycles (the paper's median-of-three, generalized).
  GroupResult group(const GroupSpec& spec, unsigned reps = 1) const;
  /// Median-of-reps solo result (also serves the matrix's baselines).
  RunResult solo(const SoloSpec& spec) const;
  ScalabilityResult scalability(const SweepSpec& spec,
                                const ScalThresholds& t = {}) const;
  PrefetchSensitivity prefetch(const PrefetchSpec& spec) const;
  CorunMatrix matrix(const MatrixSpec& spec) const;

  const RunOptions& options() const { return base_; }

 private:
  friend class ExperimentPlan;
  const GroupResult& median_ref(const GroupSpec& spec, unsigned reps) const;

  RunOptions base_;
  std::unordered_map<std::string, GroupResult> results_;
};

class ExperimentPlan {
 public:
  /// `base` supplies everything a spec does not: machine, size class,
  /// seed, sampling window, cycle limit, default thread counts.
  explicit ExperimentPlan(RunOptions base = {});

  ExperimentPlan& add_solo(const SoloSpec& spec);
  ExperimentPlan& add_group(const GroupSpec& spec, unsigned reps = 1);
  ExperimentPlan& add_scalability(const SweepSpec& spec);
  ExperimentPlan& add_prefetch(const PrefetchSpec& spec);
  ExperimentPlan& add_matrix(const MatrixSpec& spec);

  /// Unique trials after structural dedup.
  std::size_t trial_count() const { return trials_.size(); }
  /// Trials the RunCache cannot already serve (what execute() will
  /// actually simulate).
  std::size_t residue_count() const;
  const std::vector<Trial>& trials() const { return trials_; }

  /// Called after each finished trial (serialized; `done` counts up to
  /// trial_count()).
  using Progress =
      std::function<void(std::size_t done, std::size_t total, const Trial& t)>;

  /// Runs every unique trial on the persistent pool (cache hits return
  /// without simulating) and collects the results.
  ResultSet execute(unsigned host_threads = 0, Progress progress = {}) const;

  const RunOptions& options() const { return base_; }

 private:
  void add_trial(GroupSpec group, const RunOptions& opt);

  RunOptions base_;
  std::vector<Trial> trials_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace coperf::harness
