// Pairwise deconvolution of N-resident group observations (prediction
// subsystem).
//
// A cluster that packs s >= 3 residents per machine observes *group*
// slowdowns, not pair entries: each observation says "type t ran at
// slowdown s while the multiset O shared its machine". Under the
// additive composition model that is one linear equation per
// observation,
//
//     sum_{o in O} x[t][o] = s - 1,      x[a][b] = M[a][b] - 1,
//
// so the pairwise excess matrix is recoverable by least squares from
// group observations alone -- online refinement no longer needs
// dedicated pair runs (cf. Shubham et al., arXiv:2410.18126, which
// predicts multi-tenant slowdowns straight from solo counters).
//
// PairDeconvolver maintains the running least-squares estimate
// incrementally: one O(n^2) recursive-least-squares update per
// observation, one independent RLS state per foreground row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness/matrix.hpp"

namespace coperf::predict {

class PairDeconvolver {
 public:
  /// `types` axis positions; `ridge` regularizes the per-row normal
  /// matrix (diffuse prior 1/ridge, like LeastSquaresModel's RLS).
  explicit PairDeconvolver(std::size_t types, double ridge = 1e-3);

  /// Seeds the RLS prior with a pairwise estimate (e.g. a predicted
  /// matrix), so the first under-determined group equations *adjust*
  /// calibrated predictions instead of splitting the excess from a
  /// zero-knowledge prior -- without it, one 3-resident observation
  /// can make a well-predicted cell worse until support accumulates.
  /// Only valid before the first observe(); axis sizes must match.
  void seed_prior(const harness::CorunMatrix& prior);

  /// Folds one group observation in: `type` ran at `slowdown` while
  /// the `others` multiset (>= 1 co-resident, any order) shared the
  /// machine. A single co-resident is an exact pair equation; larger
  /// groups constrain sums of row entries.
  void observe(std::size_t type, const std::vector<std::size_t>& others,
               double slowdown);

  /// Current estimate of the pairwise entry M[fg][bg], clamped >= 1.
  double entry(std::size_t fg, std::size_t bg) const;
  /// Observations that involved the (fg, bg) co-residency so far
  /// (0 = entry() is just the prior).
  std::uint64_t support(std::size_t fg, std::size_t bg) const;

  std::size_t observations() const { return observations_; }
  std::size_t size() const { return n_; }

 private:
  std::size_t n_;
  std::size_t observations_ = 0;
  std::vector<std::vector<double>> excess_;  ///< per-row RLS weights
  /// Per-row inverse normal matrix P = (Phi^T Phi + ridge I)^{-1}.
  std::vector<std::vector<std::vector<double>>> cov_;
  std::vector<std::vector<std::uint64_t>> support_;
};

}  // namespace coperf::predict
