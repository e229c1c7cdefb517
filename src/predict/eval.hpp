// Predictor evaluation (prediction subsystem).
//
// Scores a predicted matrix against a measured one: cell-level error
// (MAE/RMSE), Spearman rank correlation (does the predictor order pairs
// correctly, which is all a scheduler needs), and the paper's
// Harmony / Victim-Offender / Both-Victim pair-class confusion.
// leave_one_out() is the honest protocol for the data-driven models:
// each workload's row and column are predicted by a model trained
// without any pair involving that workload.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "harness/grouptruth.hpp"
#include "harness/matrix.hpp"
#include "predict/model.hpp"
#include "predict/predicted_matrix.hpp"

namespace coperf::predict {

/// 3x3 pair-class confusion: rows = measured class, cols = predicted.
struct Confusion {
  std::size_t counts[3][3] = {};

  std::size_t total() const;
  std::size_t agree() const;  ///< diagonal sum
  double agreement() const;   ///< agree / total (1.0 when total == 0)
};

struct EvalResult {
  double mae = 0.0;
  double rmse = 0.0;
  double spearman = 0.0;  ///< rank correlation over evaluated cells
  std::size_t cells = 0;
  Confusion confusion;

  /// Human-readable multi-line summary (confusion table included).
  std::string summary() const;
};

/// Cell-by-cell comparison over the full matrices (axes must match).
EvalResult evaluate(const harness::CorunMatrix& measured,
                    const harness::CorunMatrix& predicted);

/// Leave-one-workload-out evaluation of a trainable model: for each
/// held-out workload w, trains on every pair not involving w, then
/// predicts w's row and column. The assembled matrix is scored against
/// `measured` -- no cell is ever predicted by a model that saw it.
/// When `predicted_out` is non-null it receives the assembled held-out
/// matrix (e.g. to place jobs on an honest prediction).
EvalResult leave_one_out(
    const harness::CorunMatrix& measured,
    const std::vector<WorkloadSignature>& sigs,
    const std::function<std::unique_ptr<TrainableModel>()>& new_model,
    harness::CorunMatrix* predicted_out = nullptr);

/// Accuracy against *measured group truth* -- the re-baseline. Each
/// observation is one member of a measured N-resident group; the model
/// is scored by predict_group(), and the additive composition of the
/// measured pairwise matrix (the pre-grouptruth ground "truth") is
/// scored alongside it, so the additive-vs-measured gap is a first-
/// class number instead of an assumption.
struct GroupEval {
  std::size_t observations = 0;
  double model_mae = 0.0;
  double model_rmse = 0.0;
  double model_spearman = 0.0;  ///< model predictions vs measured, ranks
  double additive_mae = 0.0;    ///< composed measured pairs vs measured
  double additive_rmse = 0.0;
  double max_additive_gap = 0.0;  ///< worst |measured - composed| member
};

/// Scores `model` and the additive-composition baseline over measured
/// group observations (type indices refer to `sigs` / the axis of
/// `measured_pairs`, which must agree). Observations with fewer than
/// one co-resident are skipped.
GroupEval evaluate_groups(const std::vector<harness::GroupObservation>& obs,
                          const std::vector<WorkloadSignature>& sigs,
                          const harness::CorunMatrix& measured_pairs,
                          const InterferenceModel& model);

}  // namespace coperf::predict
