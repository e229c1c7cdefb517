// Interference predictors (prediction subsystem).
//
// Every model answers one question: given two solo signatures, what is
// the normalized runtime of `fg` when `bg` loops in the background?
// Two families are provided behind the common InterferenceModel
// interface:
//
//  * BandwidthContentionModel -- analytic, zero training. Combined
//    bandwidth demand against the machine's practical peak (the paper's
//    Fig. 3 / Table III saturation analysis) plus queueing-latency and
//    LLC-capacity terms driven by the signatures' sensitivity/intensity
//    scores.
//  * KnnModel / LeastSquaresModel -- data-driven, trained on measured
//    (fg, bg, slowdown) triples and refined online by observe().
#pragma once

#include <string>
#include <vector>

#include "predict/signature.hpp"

namespace coperf::predict {

/// One measured co-run observation used to fit data-driven models.
struct TrainingPair {
  WorkloadSignature fg;
  WorkloadSignature bg;
  double slowdown = 1.0;  ///< measured t(fg|bg) / t(fg solo)
};

class InterferenceModel {
 public:
  virtual ~InterferenceModel() = default;
  virtual std::string name() const = 0;
  /// Predicted normalized runtime of fg co-run against bg (>= 1.0).
  virtual double predict(const WorkloadSignature& fg,
                         const WorkloadSignature& bg) const = 0;
  /// Predicted normalized runtime of fg co-resident with the `others`
  /// multiset (>= 1.0). Default: pairwise excess predictions compose
  /// additively (harness::corun_slowdown over predicted entries) --
  /// models with a native group notion override this.
  virtual double predict_group(const WorkloadSignature& fg,
                               const std::vector<WorkloadSignature>& others) const;
  /// Online-refinement hook: folds one truly observed co-run into the
  /// model, so a scheduler can sharpen its predictions from every
  /// placement it actually makes. Incremental for kNN (append the
  /// exemplar), recursive least squares for the linear model. The
  /// analytic model has no trainable state and ignores it.
  virtual void observe(const TrainingPair& /*sample*/) {}
};

class TrainableModel : public InterferenceModel {
 public:
  virtual void train(const std::vector<TrainingPair>& pairs) = 0;
};

/// Pair feature map shared by the data-driven models: interaction terms
/// between the foreground's exposure and the background's pressure.
std::vector<double> pair_features(const WorkloadSignature& fg,
                                  const WorkloadSignature& bg);
std::size_t pair_feature_count();

// ---------------------------------------------------------------------
// Analytic bandwidth-contention model.
// ---------------------------------------------------------------------
class BandwidthContentionModel final : public InterferenceModel {
 public:
  struct Params {
    /// Combined demand / peak above which the channel saturates and the
    /// channel-bound fraction of fg's time inflates proportionally.
    double saturation = 1.0;
    /// Weak-app penalty: under saturation, the app with the smaller
    /// demand loses more than its fair share of the channel.
    double asymmetry_coeff = 1.0;
    /// Queueing-latency growth below the knee: extra latency the
    /// background's traffic adds to fg's demand DRAM waits.
    double queue_coeff = 0.9;
    /// LLC-capacity theft: victim's LLC-resident reuse x offender's
    /// sweep pressure.
    double capacity_coeff = 1.6;
  };

  BandwidthContentionModel() = default;
  explicit BandwidthContentionModel(Params p) : params_(p) {}

  std::string name() const override { return "bandwidth"; }
  double predict(const WorkloadSignature& fg,
                 const WorkloadSignature& bg) const override;

 private:
  Params params_;
};

// ---------------------------------------------------------------------
// k-nearest-neighbours over pair features.
// ---------------------------------------------------------------------
class KnnModel final : public TrainableModel {
 public:
  explicit KnnModel(unsigned k = 5) : k_(k) {}

  std::string name() const override { return "knn"; }
  void train(const std::vector<TrainingPair>& pairs) override;
  double predict(const WorkloadSignature& fg,
                 const WorkloadSignature& bg) const override;
  /// Appends the observation as one more exemplar. Feature
  /// normalization stays frozen at the train()-time statistics so
  /// existing neighbours keep their distances; on a never-trained model
  /// the identity normalization is used.
  void observe(const TrainingPair& sample) override;

  std::size_t training_size() const { return targets_.size(); }

 private:
  unsigned k_ = 5;
  std::vector<std::vector<double>> rows_;  ///< normalized pair features
  std::vector<double> targets_;
  std::vector<double> mean_, scale_;       ///< per-feature normalization
};

// ---------------------------------------------------------------------
// Ridge-regularized least squares over pair features.
// ---------------------------------------------------------------------
class LeastSquaresModel final : public TrainableModel {
 public:
  explicit LeastSquaresModel(double ridge = 1e-3) : ridge_(ridge) {}

  std::string name() const override { return "lstsq"; }
  void train(const std::vector<TrainingPair>& pairs) override;
  double predict(const WorkloadSignature& fg,
                 const WorkloadSignature& bg) const override;
  /// Recursive-least-squares update: one rank-1 refresh of the weights
  /// and the inverse normal matrix per observation, O(dim^2). Works on
  /// a never-trained model too (zero weights, diffuse prior 1/ridge).
  void observe(const TrainingPair& sample) override;

  const std::vector<double>& weights() const { return weights_; }

 private:
  void ensure_rls_state();

  double ridge_ = 1e-3;
  std::vector<double> weights_;  ///< one per pair feature, plus bias at [0]
  /// RLS state: P = (X^T X + ridge I)^{-1}, seeded by train() and
  /// refined by observe().
  std::vector<std::vector<double>> cov_;
};

}  // namespace coperf::predict
