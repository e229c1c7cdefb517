// Tests for the extension modules: the Bubble-Up-style pressure probe.
#include <gtest/gtest.h>

#include "harness/bubble.hpp"

namespace coperf::harness {
namespace {

// ---------------------------------------------------------------------
// Sensitivity curves
// ---------------------------------------------------------------------

SensitivityCurve make_curve() {
  SensitivityCurve c;
  c.workload = "X";
  c.pressure_gbs = {2.0, 10.0, 20.0};
  c.slowdown = {1.0, 1.3, 2.1};
  return c;
}

TEST(Bubble, CurveInterpolatesMonotonically) {
  const auto c = make_curve();
  EXPECT_DOUBLE_EQ(c.at(0.0), 1.0);       // clamp below
  EXPECT_DOUBLE_EQ(c.at(2.0), 1.0);
  EXPECT_NEAR(c.at(6.0), 1.15, 1e-9);     // halfway 2..10
  EXPECT_NEAR(c.at(15.0), 1.7, 1e-9);     // halfway 10..20
  EXPECT_DOUBLE_EQ(c.at(50.0), 2.1);      // clamp above
}

TEST(Bubble, ScoreIsMeanSlowdown) {
  const auto c = make_curve();
  EXPECT_NEAR(c.sensitivity_score(), (1.0 + 1.3 + 2.1) / 3.0, 1e-12);
}

TEST(Bubble, PredictionUsesAggressorPressure) {
  const auto victim = make_curve();
  PressureScore agg;
  agg.contended_bw_gbs = 10.0;
  EXPECT_NEAR(predict_slowdown(victim, agg), 1.3, 1e-9);
}

TEST(Bubble, MeasuredCurveIsSane) {
  RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = wl::SizeClass::Tiny;
  o.threads = 4;
  const auto c = sensitivity_curve("Bandit", {4.0, 20.0}, o);
  ASSERT_EQ(c.slowdown.size(), 2u);
  // More delivered pressure must not reduce the slowdown.
  EXPECT_GE(c.slowdown.back() + 0.05, c.slowdown.front());
  EXPECT_GE(c.slowdown.front(), 0.95);
}

TEST(Bubble, SensitiveVsInsensitiveApps) {
  RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = wl::SizeClass::Tiny;
  o.threads = 4;
  const auto bandit = sensitivity_curve("Bandit", {20.0}, o);
  const auto swap = sensitivity_curve("swaptions", {20.0}, o);
  EXPECT_GT(bandit.sensitivity_score(), swap.sensitivity_score())
      << "a bandwidth-bound app must be more bubble-sensitive than a "
         "compute-bound one";
  EXPECT_LT(swap.sensitivity_score(), 1.15);
}

}  // namespace
}  // namespace coperf::harness
