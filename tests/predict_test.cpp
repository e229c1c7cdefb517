// Tests for the interference-prediction subsystem: signature
// extraction and save/load, model training and online updates,
// predicted-matrix invariants, and the analytic model reproducing
// measured pair classes end to end.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/classify.hpp"
#include "harness/group.hpp"
#include "harness/grouptruth.hpp"
#include "harness/matrix.hpp"
#include "median_reference.hpp"
#include "predict/deconvolve.hpp"
#include "predict/eval.hpp"
#include "predict/model.hpp"
#include "predict/predicted_matrix.hpp"
#include "predict/signature.hpp"

namespace coperf::predict {
namespace {

harness::RunOptions tiny_opts() {
  harness::RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = wl::SizeClass::Tiny;
  o.threads = 4;
  return o;
}

/// Hand-built signature for simulation-free unit tests.
WorkloadSignature synthetic(const std::string& name, double bw_fraction,
                            double l2_pcp, double llc_mpki, double l2_mpki,
                            double footprint_vs_llc, double prefetch_share) {
  WorkloadSignature s;
  s.workload = name;
  s.threads = 4;
  s.bw_fraction = bw_fraction;
  s.solo_bw_gbs = bw_fraction * 28.0;
  s.l2_pcp = l2_pcp;
  s.mem_stall_frac = l2_pcp * 0.9;
  s.llc_mpki = llc_mpki;
  s.l2_mpki = l2_mpki;
  s.cpi = 1.0 + l2_pcp;
  s.ipc = 1.0 / s.cpi;
  s.ll = 100.0;
  s.footprint_vs_llc = footprint_vs_llc;
  s.prefetch_share = prefetch_share;
  s.solo_cycles = 1'000'000;
  s.solo_seconds = 3.7e-4;
  return s;
}

std::vector<WorkloadSignature> synthetic_suite() {
  return {
      synthetic("stream-like", 0.95, 0.95, 50.0, 50.0, 2.5, 0.8),
      synthetic("llc-resident", 0.35, 0.6, 3.0, 120.0, 1.5, 0.7),
      synthetic("prefetch-stream", 0.8, 0.25, 0.5, 0.6, 3.0, 0.95),
      synthetic("compute", 0.02, 0.01, 0.05, 0.06, 0.05, 0.2),
      synthetic("conflict-gen", 0.45, 0.99, 200.0, 200.0, 3.0, 0.0),
      synthetic("moderate", 0.5, 0.4, 10.0, 30.0, 1.2, 0.6),
  };
}

TEST(Signature, ExtractionIsDeterministic) {
  const auto opt = tiny_opts();
  const auto a = WorkloadSignature::from(harness::run_solo("Stream", opt),
                                         opt.machine);
  const auto b = WorkloadSignature::from(harness::run_solo("Stream", opt),
                                         opt.machine);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.workload, "Stream");
  EXPECT_GT(a.bw_fraction, 0.5) << "Stream should be bandwidth-hungry";
  EXPECT_GT(a.solo_cycles, 0u);
}

TEST(Signature, FeatureVectorMatchesNames) {
  const auto s = synthetic("x", 0.5, 0.5, 10.0, 20.0, 1.0, 0.5);
  EXPECT_EQ(s.features().size(), WorkloadSignature::feature_names().size());
}

TEST(Signature, ScoresAreBounded) {
  for (const auto& s : synthetic_suite()) {
    EXPECT_GE(s.sensitivity(), 0.0);
    EXPECT_LE(s.sensitivity(), 1.0);
    EXPECT_GE(s.intensity(), 0.0);
    EXPECT_LE(s.intensity(), 1.5);
  }
  // A pure-compute workload must score near zero on both axes.
  const auto compute = synthetic("compute", 0.02, 0.01, 0.05, 0.06, 0.05, 0.2);
  EXPECT_LT(compute.sensitivity(), 0.1);
  EXPECT_LT(compute.intensity(), 0.1);
}

TEST(Signature, SaveLoadRoundTrip) {
  const auto sigs = synthetic_suite();
  std::stringstream ss;
  save_signatures(ss, sigs);
  const auto loaded = load_signatures(ss);
  ASSERT_EQ(loaded.size(), sigs.size());
  for (std::size_t i = 0; i < sigs.size(); ++i) EXPECT_EQ(loaded[i], sigs[i]);
}

TEST(Signature, LoadRejectsBadHeader) {
  std::stringstream ss{"not-a-signature-file\n"};
  EXPECT_THROW(load_signatures(ss), std::runtime_error);
  std::stringstream v1{"coperf-signatures v1\n"};
  EXPECT_THROW(load_signatures(v1), std::runtime_error);
}

TEST(Signature, SaveLoadKeepsServingFields) {
  auto s = synthetic("kvserve-like", 0.3, 0.4, 5.0, 12.0, 0.8, 0.1);
  s.solo_lat_p50 = 1234.5;
  s.solo_lat_p99 = 98765.25;
  s.request_count = 4096;
  ASSERT_TRUE(s.latency_critical());
  std::stringstream ss;
  save_signatures(ss, {s});
  const auto loaded = load_signatures(ss);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0], s);
  EXPECT_TRUE(loaded[0].latency_critical());
}

TEST(Signature, LoadRejectsNegativeCountsAndExtraFields) {
  std::stringstream good;
  save_signatures(good, {synthetic("x", 0.5, 0.5, 10.0, 20.0, 1.0, 0.5)});
  const std::string text = good.str();
  const std::size_t row = text.find('\n') + 1;
  const std::string header = text.substr(0, row);
  const std::string line = text.substr(row, text.size() - row - 1);
  {
    std::stringstream ok{header + line + "\n"};
    EXPECT_EQ(load_signatures(ok).size(), 1u);
  }
  {
    // "x\t4\t..." -> "x\t-1\t...": istream >> unsigned would wrap it.
    std::string neg = line;
    neg.replace(neg.find('\t') + 1, 1, "-1");
    std::stringstream in{header + neg + "\n"};
    EXPECT_THROW(load_signatures(in), std::runtime_error);
  }
  {
    std::stringstream in{header + line + "\t7\n"};
    EXPECT_THROW(load_signatures(in), std::runtime_error);
  }
}

// collect_signatures runs one plan; every field must equal a signature
// built from the reference median of runs, in input order, with the
// repeated name served twice.
TEST(Signature, CollectMatchesGroupMedianReference) {
  const auto opt = tiny_opts();
  const std::vector<std::string> workloads = {"Bandit", "Stream", "Bandit"};
  const auto sigs = collect_signatures(workloads, opt, /*reps=*/3);
  ASSERT_EQ(sigs.size(), workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const harness::RunResult ref =
        harness::median_of_runs(
            harness::GroupSpec::solo(workloads[i], opt.threads), opt, 3)
            .members[0];
    EXPECT_EQ(sigs[i], WorkloadSignature::from(ref, opt.machine))
        << workloads[i];
  }
}

TEST(Model, AnalyticPredictionIsMonotoneInBackgroundDemand) {
  // A louder background must never predict a smaller slowdown --
  // especially across the saturation knee, where the scheduler depends
  // on the pair ordering.
  const BandwidthContentionModel model;
  const auto fg = synthetic("victim", 0.5, 0.3, 3.0, 6.0, 1.0, 0.5);
  double prev = 0.0;
  for (double bb = 0.0; bb <= 1.2; bb += 0.01) {
    auto bg = synthetic("offender", bb, 0.5, 10.0, 10.0, 2.0, 0.8);
    const double s = model.predict(fg, bg);
    EXPECT_GE(s, prev - 1e-12) << "slowdown dropped at bg bw_fraction " << bb;
    prev = s;
  }
}

TEST(Model, UntrainedPredictThrows) {
  const auto s = synthetic("x", 0.5, 0.5, 10.0, 20.0, 1.0, 0.5);
  EXPECT_THROW(KnnModel{}.predict(s, s), std::logic_error);
  EXPECT_THROW(LeastSquaresModel{}.predict(s, s), std::logic_error);
  EXPECT_THROW(KnnModel{}.train({}), std::invalid_argument);
}

TEST(Model, LeastSquaresRecoversLinearTarget) {
  // Slowdown defined as an exact linear function of the pair features
  // must be recovered (near-)exactly by the ridge solve.
  const auto sigs = synthetic_suite();
  std::vector<TrainingPair> pairs;
  for (const auto& fg : sigs)
    for (const auto& bg : sigs) {
      const auto x = pair_features(fg, bg);
      pairs.push_back({fg, bg, 1.0 + 0.5 * x[0] + 0.25 * x[3]});
    }
  LeastSquaresModel m{1e-9};
  m.train(pairs);
  for (const auto& p : pairs)
    EXPECT_NEAR(m.predict(p.fg, p.bg), p.slowdown, 1e-6);
}

TEST(Model, KnnObserveAppendsExemplar) {
  const auto sigs = synthetic_suite();
  // Train on every pair except (0, 1), all harmonious.
  std::vector<TrainingPair> pairs;
  for (std::size_t i = 0; i < sigs.size(); ++i)
    for (std::size_t j = 0; j < sigs.size(); ++j)
      if (!(i == 0 && j == 1)) pairs.push_back({sigs[i], sigs[j], 1.2});
  KnnModel m{1};
  m.train(pairs);
  const std::size_t before = m.training_size();
  EXPECT_NEAR(m.predict(sigs[0], sigs[1]), 1.2, 1e-9);
  // Observing the true slowdown at the held-out point must pull k=1
  // prediction there exactly: the new exemplar is its own (unique)
  // nearest neighbour.
  m.observe({sigs[0], sigs[1], 2.5});
  EXPECT_EQ(m.training_size(), before + 1);
  EXPECT_NEAR(m.predict(sigs[0], sigs[1]), 2.5, 1e-9);
}

TEST(Model, KnnObserveWorksOnColdModel) {
  const auto sigs = synthetic_suite();
  KnnModel m{3};
  m.observe({sigs[0], sigs[1], 1.7});
  EXPECT_EQ(m.training_size(), 1u);
  EXPECT_NEAR(m.predict(sigs[0], sigs[1]), 1.7, 1e-9);
}

TEST(Model, RlsObserveMatchesBatchRetrain) {
  // Recursive least squares is algebraically exact: training on N
  // pairs and observing one more must equal training on all N+1 (same
  // ridge prior). This is the property that makes online refinement
  // trustworthy -- no drift relative to the batch solve.
  const auto sigs = synthetic_suite();
  const BandwidthContentionModel teacher;
  std::vector<TrainingPair> pairs;
  for (const auto& fg : sigs)
    for (const auto& bg : sigs)
      pairs.push_back({fg, bg, teacher.predict(fg, bg)});
  const TrainingPair extra{sigs[2], sigs[4], 1.9};

  LeastSquaresModel online;
  online.train(pairs);
  online.observe(extra);

  std::vector<TrainingPair> all = pairs;
  all.push_back(extra);
  LeastSquaresModel batch;
  batch.train(all);

  ASSERT_EQ(online.weights().size(), batch.weights().size());
  for (const auto& fg : sigs)
    for (const auto& bg : sigs)
      EXPECT_NEAR(online.predict(fg, bg), batch.predict(fg, bg), 1e-6)
          << "RLS diverged from the batch solve";
}

TEST(Model, RlsObserveWorksOnColdModel) {
  // A never-trained model starts from the diffuse ridge prior; a few
  // repeats of the same observation must pull the prediction to it.
  const auto sigs = synthetic_suite();
  LeastSquaresModel m;
  for (int i = 0; i < 50; ++i) m.observe({sigs[1], sigs[3], 1.8});
  EXPECT_NEAR(m.predict(sigs[1], sigs[3]), 1.8, 0.05);
}

TEST(PredictedMatrix, ShapeAndNormalizationInvariants) {
  const auto sigs = synthetic_suite();
  const BandwidthContentionModel model;
  const harness::CorunMatrix m = predicted_matrix(sigs, model);
  ASSERT_EQ(m.size(), sigs.size());
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    EXPECT_EQ(m.workloads[i], sigs[i].workload);
    EXPECT_EQ(m.solo_cycles[i], sigs[i].solo_cycles);
    ASSERT_EQ(m.normalized[i].size(), sigs.size());
    for (std::size_t j = 0; j < sigs.size(); ++j)
      EXPECT_GE(m.at(i, j), 1.0) << "a co-runner cannot speed up the fg";
  }
  // Diagonal: self co-run of a bandwidth hog must not be harmonious.
  EXPECT_GT(m.at(0, 0), harness::kVictimThreshold);
  EXPECT_THROW(predicted_matrix({}, model), std::invalid_argument);
}

TEST(PredictedMatrix, FeedsExistingConsumersUnchanged) {
  const auto sigs = synthetic_suite();
  const BandwidthContentionModel model;
  const harness::CorunMatrix m = predicted_matrix(sigs, model);
  // classify / count_classes operate on the predicted matrix exactly as
  // on a measured one.
  const auto counts = m.count_classes();
  EXPECT_EQ(counts.harmony + counts.victim_offender + counts.both_victim,
            sigs.size() * (sigs.size() + 1) / 2);
}

TEST(PredictedMatrix, TrainingPairsValidatesAxes) {
  const auto sigs = synthetic_suite();
  harness::CorunMatrix m;
  m.workloads = {"a", "b"};
  m.normalized = {{1.0, 1.0}, {1.0, 1.0}};
  m.solo_cycles = {1, 1};
  EXPECT_THROW(training_pairs(m, sigs), std::invalid_argument);
}

TEST(Eval, PerfectPredictionScoresPerfectly) {
  const auto sigs = synthetic_suite();
  const BandwidthContentionModel model;
  const harness::CorunMatrix m = predicted_matrix(sigs, model);
  const EvalResult e = evaluate(m, m);
  EXPECT_DOUBLE_EQ(e.mae, 0.0);
  EXPECT_DOUBLE_EQ(e.rmse, 0.0);
  EXPECT_NEAR(e.spearman, 1.0, 1e-9);
  EXPECT_EQ(e.confusion.agree(), e.confusion.total());
  EXPECT_DOUBLE_EQ(e.confusion.agreement(), 1.0);
  EXPECT_FALSE(e.summary().empty());
}

TEST(Eval, LeaveOneOutPredictsHeldOutRows) {
  const auto sigs = synthetic_suite();
  // Ground truth generated by the analytic model: the data-driven
  // models must recover it from held-out training alone.
  const BandwidthContentionModel teacher;
  const harness::CorunMatrix truth = predicted_matrix(sigs, teacher);
  const EvalResult knn = leave_one_out(
      truth, sigs, [] { return std::make_unique<KnnModel>(3); });
  EXPECT_GT(knn.spearman, 0.5);
  const EvalResult lstsq = leave_one_out(
      truth, sigs, [] { return std::make_unique<LeastSquaresModel>(); });
  EXPECT_GT(lstsq.spearman, 0.7);
  EXPECT_LT(lstsq.mae, 0.25);
  EXPECT_THROW(
      leave_one_out(truth, {sigs[0]},
                    [] { return std::make_unique<KnnModel>(); }),
      std::invalid_argument);
}

// ---------------------------------------------------------------------
// Group-aware path: predict_group and deconvolution.

/// A known additive pairwise truth over 4 synthetic types.
harness::CorunMatrix additive_truth4() {
  harness::CorunMatrix m;
  m.workloads = {"hog", "victim", "neutral", "medium"};
  m.solo_cycles = {1, 1, 1, 1};
  m.normalized = {
      {1.60, 1.10, 1.05, 1.20},
      {2.20, 1.05, 1.02, 1.40},
      {1.05, 1.01, 1.00, 1.02},
      {1.50, 1.10, 1.03, 1.25},
  };
  return m;
}

/// Every 3-resident multiset observation synthesized additively from
/// the matrix (each member foreground once, duplicates included so the
/// diagonal is constrained too).
std::vector<harness::GroupObservation> additive_observations(
    const harness::CorunMatrix& m) {
  std::vector<harness::GroupObservation> obs;
  const std::size_t n = m.size();
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a; b < n; ++b)
      for (std::size_t c = b; c < n; ++c) {
        const std::vector<std::size_t> group = {a, b, c};
        for (std::size_t i = 0; i < group.size(); ++i) {
          harness::GroupObservation o;
          o.type = group[i];
          for (std::size_t j = 0; j < group.size(); ++j)
            if (j != i) o.others.push_back(group[j]);
          o.slowdown = harness::corun_slowdown(m, o.type, o.others);
          obs.push_back(std::move(o));
        }
      }
  return obs;
}

TEST(Deconvolve, RecoversPairwiseEntriesFromGroupObservations) {
  const harness::CorunMatrix truth = additive_truth4();
  PairDeconvolver d{truth.size()};
  for (const harness::GroupObservation& o : additive_observations(truth))
    d.observe(o.type, o.others, o.slowdown);
  for (std::size_t fg = 0; fg < truth.size(); ++fg)
    for (std::size_t bg = 0; bg < truth.size(); ++bg)
      EXPECT_NEAR(d.entry(fg, bg), truth.at(fg, bg), 1e-2)
          << "pairwise entry (" << fg << "," << bg
          << ") not recovered from 3-resident observations";
}

TEST(Deconvolve, TracksSupportAndValidatesInput) {
  PairDeconvolver d{3};
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.observations(), 0u);
  EXPECT_EQ(d.support(0, 1), 0u);
  EXPECT_DOUBLE_EQ(d.entry(0, 1), 1.0) << "the prior is harmony";

  d.observe(0, {1, 2}, 1.5);
  EXPECT_EQ(d.observations(), 1u);
  EXPECT_EQ(d.support(0, 1), 1u);
  EXPECT_EQ(d.support(0, 2), 1u);
  EXPECT_EQ(d.support(1, 0), 0u) << "support is per foreground row";
  // One equation x01 + x02 = 0.5: least-norm splits the excess.
  EXPECT_GT(d.entry(0, 1), 1.0);

  EXPECT_THROW(d.observe(9, {0}, 1.1), std::out_of_range);
  EXPECT_THROW(d.observe(0, {9}, 1.1), std::out_of_range);
  EXPECT_THROW(d.observe(0, {}, 1.1), std::invalid_argument);
  EXPECT_THROW((void)d.entry(3, 0), std::out_of_range);
  EXPECT_THROW(PairDeconvolver(0), std::invalid_argument);
  EXPECT_THROW(PairDeconvolver(2, 0.0), std::invalid_argument);
}

TEST(Deconvolve, SeededPriorIsAdjustedNotReplaced) {
  const harness::CorunMatrix truth = additive_truth4();
  PairDeconvolver d{truth.size()};
  d.seed_prior(truth);
  for (std::size_t fg = 0; fg < truth.size(); ++fg)
    for (std::size_t bg = 0; bg < truth.size(); ++bg)
      EXPECT_DOUBLE_EQ(d.entry(fg, bg), truth.at(fg, bg));

  // One equation consistent with the prior must not degrade any cell:
  // the RLS innovation is ~0, so the estimate stays at the truth
  // instead of snapping to a least-norm split of the excess.
  const double consistent = harness::corun_slowdown(truth, 1, {0, 3});
  d.observe(1, {0, 3}, consistent);
  for (std::size_t bg = 0; bg < truth.size(); ++bg)
    EXPECT_NEAR(d.entry(1, bg), truth.at(1, bg), 1e-9)
        << "a consistent observation must leave the calibrated prior alone";

  EXPECT_THROW(d.seed_prior(truth), std::logic_error)
      << "prior after observations would silently discard evidence";
  PairDeconvolver fresh{2};
  EXPECT_THROW(fresh.seed_prior(truth), std::invalid_argument);
}

TEST(Model, PredictGroupDefaultsToAdditiveComposition) {
  const auto sigs = synthetic_suite();
  const BandwidthContentionModel model;
  const double p1 = model.predict(sigs[0], sigs[1]);
  const double p2 = model.predict(sigs[0], sigs[2]);
  EXPECT_DOUBLE_EQ(model.predict_group(sigs[0], {sigs[1]}), std::max(1.0, p1));
  EXPECT_DOUBLE_EQ(model.predict_group(sigs[0], {sigs[1], sigs[2]}),
                   std::max(1.0, 1.0 + (p1 - 1.0) + (p2 - 1.0)));
  EXPECT_DOUBLE_EQ(model.predict_group(sigs[0], {}), 1.0);
}

TEST(Eval, EvaluateGroupsScoresModelAndAdditiveBaseline) {
  const harness::CorunMatrix pairs = additive_truth4();
  std::vector<WorkloadSignature> sigs;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    auto s = synthetic_suite()[i];
    s.workload = pairs.workloads[i];
    sigs.push_back(std::move(s));
  }
  // Measured truth IS the additive composition here, so the additive
  // baseline scores perfectly while the analytic model does not.
  const auto obs = additive_observations(pairs);
  const BandwidthContentionModel model;
  const GroupEval e = evaluate_groups(obs, sigs, pairs, model);
  EXPECT_EQ(e.observations, obs.size());
  EXPECT_NEAR(e.additive_mae, 0.0, 1e-12);
  EXPECT_NEAR(e.max_additive_gap, 0.0, 1e-12);
  EXPECT_GE(e.model_mae, 0.0);

  // A non-additive measured truth shows up as a positive additive gap.
  auto skewed = obs;
  skewed.front().slowdown += 1.0;
  const GroupEval g = evaluate_groups(skewed, sigs, pairs, model);
  EXPECT_GT(g.additive_mae, 0.0);
  EXPECT_NEAR(g.max_additive_gap, 1.0, 1e-12);

  harness::CorunMatrix wrong_axis = pairs;
  wrong_axis.workloads.pop_back();
  EXPECT_THROW(evaluate_groups(obs, sigs, wrong_axis, model),
               std::invalid_argument);
}

// The acceptance-criteria path: solo signatures -> analytic prediction
// reproduces the measured Tiny-size pair class for Stream against the
// cache-light workloads, without ever measuring a co-run.
TEST(Integration, AnalyticModelReproducesMeasuredPairClass) {
  const auto opt = tiny_opts();
  const std::vector<std::string> workloads = {"Stream", "Bandit",
                                              "blackscholes"};
  const auto sigs = collect_signatures(workloads, opt, /*reps=*/1);
  const BandwidthContentionModel model;
  const harness::CorunMatrix predicted = predicted_matrix(sigs, model);

  const auto measured_class = [&](std::size_t i, std::size_t j) {
    const auto ij = harness::run_group(
        harness::GroupSpec::pair(workloads[i], workloads[j]), opt);
    const auto ji = harness::run_group(
        harness::GroupSpec::pair(workloads[j], workloads[i]), opt);
    const double si = static_cast<double>(ij.members[0].cycles) /
                      static_cast<double>(sigs[i].solo_cycles);
    const double sj = static_cast<double>(ji.members[0].cycles) /
                      static_cast<double>(sigs[j].solo_cycles);
    return harness::classify_pair(si, sj);
  };

  // Stream vs Bandit: the conflict-miss generator is the victim of the
  // bandwidth hog (paper Fig. 6), and Stream vs the cache-light
  // blackscholes is harmonious.
  EXPECT_EQ(predicted.pair_class(0, 1), measured_class(0, 1));
  EXPECT_EQ(predicted.pair_class(0, 2), measured_class(0, 2));
  EXPECT_EQ(predicted.pair_class(0, 2), harness::PairClass::Harmony);
}

}  // namespace
}  // namespace coperf::predict
