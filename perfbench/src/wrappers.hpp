// Forwarding wrappers that time and count what cluster::simulate asks
// of its policy, its cluster view and its ground truth. Each forwards
// every virtual method to the wrapped object unchanged, so a traced
// simulate() produces the same audit log as an untraced one (the
// benchmark checks this through the pinned digests).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/placement.hpp"
#include "harness/grouptruth.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Counts the machines a policy materializes while it decides.
class CountingView final : public coperf::cluster::ClusterView {
 public:
  CountingView(const coperf::cluster::ClusterView& inner, std::uint64_t& views)
      : inner_(inner), views_(views) {}

  std::size_t machines() const override { return inner_.machines(); }
  std::size_t open_count() const override { return inner_.open_count(); }
  std::size_t kth_open(std::size_t k) const override {
    return inner_.kth_open(k);
  }
  std::size_t free_slots(std::size_t m) const override {
    return inner_.free_slots(m);
  }
  const coperf::cluster::MachineView& view(std::size_t m) const override {
    ++views_;
    return inner_.view(m);
  }

 private:
  const coperf::cluster::ClusterView& inner_;
  std::uint64_t& views_;
};

/// Per-policy decision and feedback timings.
struct PolicyTimes {
  std::vector<double> decision_ns;  ///< one sample per place()
  std::vector<double> observe_us;   ///< one sample per observe_group()
  double place_s = 0.0;
  double observe_s = 0.0;
  std::uint64_t views = 0;
};

class TimedPolicy final : public coperf::cluster::PlacementPolicy {
 public:
  TimedPolicy(coperf::cluster::PlacementPolicy& inner, PolicyTimes& times)
      : inner_(inner), times_(times) {}

  std::string name() const override { return inner_.name(); }
  using PlacementPolicy::place;
  std::size_t place(const coperf::cluster::JobSpec& job,
                    const coperf::cluster::ClusterView& cluster) override {
    const CountingView counted{cluster, times_.views};
    const std::int64_t t0 = now_ns();
    const std::size_t m = inner_.place(job, counted);
    const auto ns = static_cast<double>(now_ns() - t0);
    times_.decision_ns.push_back(ns);
    times_.place_s += ns * 1e-9;
    return m;
  }
  void observe_pair(std::size_t fg_type, std::size_t bg_type,
                    double slowdown) override {
    const std::int64_t t0 = now_ns();
    inner_.observe_pair(fg_type, bg_type, slowdown);
    times_.observe_s += static_cast<double>(now_ns() - t0) * 1e-9;
  }
  void observe_group(const std::vector<std::size_t>& types,
                     const std::vector<double>& slowdowns) override {
    const std::int64_t t0 = now_ns();
    inner_.observe_group(types, slowdowns);
    const auto ns = static_cast<double>(now_ns() - t0);
    times_.observe_us.push_back(ns * 1e-3);
    times_.observe_s += ns * 1e-9;
  }
  double last_cost_delta() const override { return inner_.last_cost_delta(); }

 private:
  coperf::cluster::PlacementPolicy& inner_;
  PolicyTimes& times_;
};

struct TruthTimes {
  std::uint64_t queries = 0;
  double truth_s = 0.0;
};

/// Times every ground-truth query. The fallback count is mirrored from
/// the wrapped truth after each call, so the engine's per-run
/// pairwise_fallbacks stays what it would be without the wrapper.
class TimedTruth final : public coperf::harness::InterferenceTruth {
 public:
  TimedTruth(coperf::harness::InterferenceTruth& inner, TruthTimes& times)
      : inner_(inner), times_(times) {
    fallbacks_ = inner_.fallbacks();
  }

  std::size_t size() const override { return inner_.size(); }
  double slowdown(std::size_t type,
                  const std::vector<std::size_t>& others) override {
    return timed([&] { return inner_.slowdown(type, others); });
  }
  double tail_slowdown(std::size_t type,
                       const std::vector<std::size_t>& others) override {
    return timed([&] { return inner_.tail_slowdown(type, others); });
  }
  const coperf::harness::CorunMatrix& pairwise() override {
    const std::int64_t t0 = now_ns();
    const coperf::harness::CorunMatrix& m = inner_.pairwise();
    finish(t0);
    return m;
  }
  double pair_entry(std::size_t fg, std::size_t bg) override {
    return timed([&] { return inner_.pair_entry(fg, bg); });
  }
  double admission_delta(std::size_t job_type, double job_work,
                         const std::vector<std::size_t>& residents,
                         const std::vector<double>& remaining) override {
    return timed([&] {
      return inner_.admission_delta(job_type, job_work, residents, remaining);
    });
  }

 private:
  template <typename F>
  double timed(F&& f) {
    const std::int64_t t0 = now_ns();
    const double v = f();
    finish(t0);
    return v;
  }
  void finish(std::int64_t t0) {
    times_.truth_s += static_cast<double>(now_ns() - t0) * 1e-9;
    ++times_.queries;
    fallbacks_ = inner_.fallbacks();
  }

  coperf::harness::InterferenceTruth& inner_;
  TruthTimes& times_;
};

}  // namespace perfbench
