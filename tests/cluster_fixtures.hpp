// Shared cluster-test fixtures: the hand-built 4-type co-run truth,
// matching synthetic signatures for the trainable models, the
// non-additive RegimeChangeTruth oracle, and VectorClusterView for
// hand-built machine views. Used by cluster_test.cpp and the
// fleet-engine suites so they pin their behavior to the exact same
// ground truth.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/placement.hpp"
#include "harness/grouptruth.hpp"
#include "harness/matrix.hpp"
#include "predict/predicted_matrix.hpp"

namespace coperf::cluster {

/// ClusterView over a caller-built vector of MachineViews (hand-built
/// test views, the reference event loop). kth_open is a count-then-pick
/// scan, so the adapter allocates nothing.
class VectorClusterView final : public ClusterView {
 public:
  explicit VectorClusterView(const std::vector<MachineView>& views)
      : views_(views) {
    for (const MachineView& v : views_)
      if (v.free_slots > 0) ++open_count_;
  }

  std::size_t machines() const override { return views_.size(); }
  std::size_t open_count() const override { return open_count_; }
  std::size_t kth_open(std::size_t k) const override {
    for (std::size_t m = 0; m < views_.size(); ++m)
      if (views_[m].free_slots > 0 && k-- == 0) return m;
    throw std::out_of_range{"VectorClusterView::kth_open: index past open set"};
  }
  std::size_t free_slots(std::size_t m) const override {
    return views_[m].free_slots;
  }
  const MachineView& view(std::size_t m) const override { return views_[m]; }

 private:
  const std::vector<MachineView>& views_;
  std::size_t open_count_ = 0;
};

/// Hand-built 4-type truth: a bandwidth hog, a victim that suffers
/// badly next to it, and two near-neutral types.
inline harness::CorunMatrix synthetic_truth() {
  harness::CorunMatrix m;
  m.workloads = {"hog", "victim", "neutral", "medium"};
  m.solo_cycles = {1'000'000, 1'000'000, 1'000'000, 1'000'000};
  m.normalized = {
      {1.60, 1.10, 1.05, 1.20},   // hog | {hog victim neutral medium}
      {2.20, 1.05, 1.02, 1.40},   // victim
      {1.05, 1.01, 1.00, 1.02},   // neutral
      {1.50, 1.10, 1.03, 1.25},   // medium
  };
  return m;
}

/// Synthetic signatures matching synthetic_truth's axis, good enough
/// for the trainable models to fit against.
inline std::vector<predict::WorkloadSignature> synthetic_sigs() {
  const auto make = [](const std::string& name, double bw, double pcp,
                       double llc_mpki) {
    predict::WorkloadSignature s;
    s.workload = name;
    s.threads = 4;
    s.bw_fraction = bw;
    s.solo_bw_gbs = bw * 28.0;
    s.l2_pcp = pcp;
    s.mem_stall_frac = pcp * 0.9;
    s.llc_mpki = llc_mpki;
    s.l2_mpki = llc_mpki * 1.5;
    s.cpi = 1.0 + pcp;
    s.ipc = 1.0 / s.cpi;
    s.ll = 100.0;
    s.footprint_vs_llc = bw * 2.0;
    s.prefetch_share = 0.5;
    s.solo_cycles = 1'000'000;
    s.solo_seconds = 3.7e-4;
    return s;
  };
  return {make("hog", 0.9, 0.5, 30.0), make("victim", 0.3, 0.8, 5.0),
          make("neutral", 0.05, 0.05, 0.1), make("medium", 0.5, 0.4, 10.0)};
}

inline std::unique_ptr<predict::LeastSquaresModel> distilled_model(
    const harness::CorunMatrix& from,
    const std::vector<predict::WorkloadSignature>& sigs) {
  auto model = std::make_unique<predict::LeastSquaresModel>();
  model->train(predict::training_pairs(from, sigs));
  return model;
}

// Non-additive group-truth fixture: the pairwise matrix says the
// victim barely suffers next to one hog (1.1x), but a SECOND hog
// pushes it past a regime change to 4.0x -- a slowdown no additive
// composition of pair entries (1 + 2*0.1 = 1.2) predicts. Modeled on
// the paper's observation that co-location effects stack
// super-linearly once the LLC/channel saturates.
class RegimeChangeTruth final : public harness::InterferenceTruth {
 public:
  RegimeChangeTruth() : matrix_(regime_matrix()) {}

  static harness::CorunMatrix regime_matrix() {
    harness::CorunMatrix m;
    m.workloads = {"hog", "victim", "medium"};
    m.solo_cycles = {1'000'000, 1'000'000, 1'000'000};
    m.normalized = {
        {1.20, 1.05, 1.10},  // hog    | {hog victim medium}
        {1.10, 1.02, 1.40},  // victim
        {1.30, 1.05, 1.15},  // medium
    };
    return m;
  }

  std::size_t size() const override { return matrix_.size(); }
  const harness::CorunMatrix& pairwise() override { return matrix_; }

  double slowdown(std::size_t type,
                  const std::vector<std::size_t>& others) override {
    std::size_t hogs = 0;
    for (const std::size_t o : others) hogs += o == 0 ? 1 : 0;
    if (type == 1 && hogs >= 2) return 4.0;  // the regime change
    if (others.size() >= 2) ++fallbacks_;
    return harness::corun_slowdown(matrix_, type, others);
  }

 private:
  harness::CorunMatrix matrix_;
};

}  // namespace coperf::cluster
