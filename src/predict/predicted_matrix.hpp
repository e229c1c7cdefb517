// Predicted co-run matrix (prediction subsystem).
//
// Builds a harness::CorunMatrix from N solo signatures and an
// InterferenceModel -- the O(N) replacement for the O(N^2) measured
// sweep. The result is shape- and semantics-compatible with the
// measured matrix, so classify, report, and the cluster placement
// policies consume it unchanged.
#pragma once

#include "harness/matrix.hpp"
#include "predict/model.hpp"
#include "predict/signature.hpp"

namespace coperf::predict {

/// Predicted normalized-runtime matrix over `sigs` (axis order
/// preserved). Every cell is clamped to >= 1.0: a co-runner cannot make
/// the foreground faster in this contention model, and downstream
/// consumers assume slowdowns.
harness::CorunMatrix predicted_matrix(const std::vector<WorkloadSignature>& sigs,
                                      const InterferenceModel& model);

/// Extracts the measured training set for the data-driven models: one
/// TrainingPair per (fg, bg) cell of a measured matrix.
std::vector<TrainingPair> training_pairs(
    const harness::CorunMatrix& measured,
    const std::vector<WorkloadSignature>& sigs);

}  // namespace coperf::predict
