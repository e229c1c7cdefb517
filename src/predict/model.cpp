#include "predict/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace coperf::predict {

std::vector<double> pair_features(const WorkloadSignature& fg,
                                  const WorkloadSignature& bg) {
  const double sens = fg.sensitivity();
  const double inten = bg.intensity();
  const double combined_bw = fg.bw_fraction + bg.bw_fraction;
  const double excess = std::max(0.0, combined_bw - 1.0);
  const double mb = fg.channel_bound_frac();
  return {sens,
          inten,
          sens * inten,
          combined_bw,
          excess,
          mb * excess,
          mb * std::max(0.0, bg.bw_fraction - fg.bw_fraction),
          fg.l2_pcp * fg.dram_share() * bg.bw_fraction * bg.bw_fraction,
          fg.llc_reuse_exposure() * bg.llc_sweep_pressure(),
          std::min(1.0, fg.ll / 300.0),
          std::min(1.0, bg.llc_mpki / 20.0)};
}

std::size_t pair_feature_count() {
  static const std::size_t n =
      pair_features(WorkloadSignature{}, WorkloadSignature{}).size();
  return n;
}

double InterferenceModel::predict_group(
    const WorkloadSignature& fg,
    const std::vector<WorkloadSignature>& others) const {
  // Additive composition of pairwise predictions -- the same shape
  // harness::corun_slowdown gives a measured matrix, so a predicted
  // group cost is comparable to a composed measured one.
  double excess = 0.0;
  for (const WorkloadSignature& bg : others)
    excess += predict(fg, bg) - 1.0;
  return std::max(1.0, 1.0 + excess);
}

// ---------------------------------------------------------------------
// BandwidthContentionModel
// ---------------------------------------------------------------------

double BandwidthContentionModel::predict(const WorkloadSignature& fg,
                                         const WorkloadSignature& bg) const {
  const double bf = fg.bw_fraction;
  const double bb = bg.bw_fraction;
  const double u = bf + bb;  // combined demand / practical peak

  double chan = 0.0;
  if (params_.saturation > 0 && u > params_.saturation) {
    // Channel saturation (paper Fig. 3 / Table III): combined demand
    // above the practical peak stretches the channel-bound fraction of
    // fg's time by demand/peak. The stretch is not fair-share: the app
    // with the smaller demand (fewer outstanding requests) loses the
    // arbitration and pays extra.
    const double stretch = (u / params_.saturation) *
                           (1.0 + params_.asymmetry_coeff *
                                      std::max(0.0, bb - bf));
    chan = fg.channel_bound_frac() * (stretch - 1.0);
  }
  // Channel queueing: bg's requests lengthen fg's demand DRAM waits,
  // superlinearly in bg's traffic. Past the knee the growth is already
  // accounted for by the saturation stretch, so the term freezes at its
  // knee value -- keeping the prediction continuous and monotone in the
  // background's demand instead of collapsing the instant u crosses
  // saturation.
  const double bb_queue =
      std::min(bb, std::max(0.0, params_.saturation - bf));
  const double queue =
      params_.queue_coeff * fg.l2_pcp * fg.dram_share() * bb_queue * bb_queue;
  // LLC capacity theft: an offender sweeping the shared cache turns the
  // victim's LLC hits into DRAM round trips.
  const double cap = params_.capacity_coeff * fg.llc_reuse_exposure() *
                     bg.llc_sweep_pressure();
  return 1.0 + chan + queue + cap;
}

// ---------------------------------------------------------------------
// KnnModel
// ---------------------------------------------------------------------

void KnnModel::train(const std::vector<TrainingPair>& pairs) {
  if (pairs.empty()) throw std::invalid_argument{"knn: empty training set"};
  const std::size_t dim = pair_feature_count();
  rows_.clear();
  targets_.clear();
  mean_.assign(dim, 0.0);
  scale_.assign(dim, 1.0);
  for (const auto& p : pairs) {
    rows_.push_back(pair_features(p.fg, p.bg));
    targets_.push_back(p.slowdown);
  }
  for (const auto& r : rows_)
    for (std::size_t f = 0; f < dim; ++f) mean_[f] += r[f];
  for (double& m : mean_) m /= static_cast<double>(rows_.size());
  std::vector<double> var(dim, 0.0);
  for (const auto& r : rows_)
    for (std::size_t f = 0; f < dim; ++f)
      var[f] += (r[f] - mean_[f]) * (r[f] - mean_[f]);
  for (std::size_t f = 0; f < dim; ++f) {
    const double sd = std::sqrt(var[f] / static_cast<double>(rows_.size()));
    scale_[f] = sd > 1e-12 ? sd : 1.0;
  }
  for (auto& r : rows_)
    for (std::size_t f = 0; f < dim; ++f) r[f] = (r[f] - mean_[f]) / scale_[f];
}

double KnnModel::predict(const WorkloadSignature& fg,
                         const WorkloadSignature& bg) const {
  if (rows_.empty())
    throw std::logic_error{"knn: predict() before train()"};
  std::vector<double> q = pair_features(fg, bg);
  for (std::size_t f = 0; f < q.size(); ++f) q[f] = (q[f] - mean_[f]) / scale_[f];
  std::vector<std::pair<double, double>> by_dist;  // (distance^2, target)
  by_dist.reserve(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    double d2 = 0.0;
    for (std::size_t f = 0; f < q.size(); ++f) {
      const double d = rows_[i][f] - q[f];
      d2 += d * d;
    }
    by_dist.emplace_back(d2, targets_[i]);
  }
  const std::size_t k = std::min<std::size_t>(k_ ? k_ : 1, by_dist.size());
  std::partial_sort(by_dist.begin(),
                    by_dist.begin() + static_cast<std::ptrdiff_t>(k),
                    by_dist.end());
  // Distance-weighted mean of the k nearest observed slowdowns.
  double wsum = 0.0, vsum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double w = 1.0 / (std::sqrt(by_dist[i].first) + 1e-6);
    wsum += w;
    vsum += w * by_dist[i].second;
  }
  return vsum / wsum;
}

void KnnModel::observe(const TrainingPair& sample) {
  const std::size_t dim = pair_feature_count();
  if (mean_.size() != dim) {  // never trained: identity normalization
    mean_.assign(dim, 0.0);
    scale_.assign(dim, 1.0);
  }
  std::vector<double> row = pair_features(sample.fg, sample.bg);
  for (std::size_t f = 0; f < dim; ++f) row[f] = (row[f] - mean_[f]) / scale_[f];
  rows_.push_back(std::move(row));
  targets_.push_back(sample.slowdown);
}

// ---------------------------------------------------------------------
// LeastSquaresModel
// ---------------------------------------------------------------------

namespace {

/// Gauss-Jordan inverse with partial pivoting; dim is ~12 so an exact
/// dense inverse is cheap. Throws on a singular matrix.
std::vector<std::vector<double>> invert(std::vector<std::vector<double>> a) {
  const std::size_t dim = a.size();
  std::vector<std::vector<double>> inv(dim, std::vector<double>(dim, 0.0));
  for (std::size_t i = 0; i < dim; ++i) inv[i][i] = 1.0;
  for (std::size_t col = 0; col < dim; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < dim; ++r)
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    std::swap(a[col], a[pivot]);
    std::swap(inv[col], inv[pivot]);
    if (std::abs(a[col][col]) < 1e-12)
      throw std::runtime_error{"lstsq: singular normal equations"};
    const double d = a[col][col];
    for (std::size_t c = 0; c < dim; ++c) {
      a[col][c] /= d;
      inv[col][c] /= d;
    }
    for (std::size_t r = 0; r < dim; ++r) {
      if (r == col) continue;
      const double factor = a[r][col];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < dim; ++c) {
        a[r][c] -= factor * a[col][c];
        inv[r][c] -= factor * inv[col][c];
      }
    }
  }
  return inv;
}

std::vector<double> biased_features(const WorkloadSignature& fg,
                                    const WorkloadSignature& bg) {
  std::vector<double> x = pair_features(fg, bg);
  x.insert(x.begin(), 1.0);
  return x;
}

}  // namespace

void LeastSquaresModel::train(const std::vector<TrainingPair>& pairs) {
  if (pairs.empty()) throw std::invalid_argument{"lstsq: empty training set"};
  const std::size_t dim = pair_feature_count() + 1;  // bias column
  // Normal equations (X^T X + ridge I) w = X^T y. The regularized
  // normal matrix is inverted outright (dim is ~12): its inverse is
  // both the solve and the RLS covariance that observe() refines.
  std::vector<std::vector<double>> a(dim, std::vector<double>(dim, 0.0));
  std::vector<double> b(dim, 0.0);
  for (const auto& p : pairs) {
    const std::vector<double> x = biased_features(p.fg, p.bg);
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j < dim; ++j) a[i][j] += x[i] * x[j];
      b[i] += x[i] * p.slowdown;
    }
  }
  for (std::size_t i = 1; i < dim; ++i) a[i][i] += ridge_;  // don't shrink bias
  cov_ = invert(std::move(a));
  weights_.assign(dim, 0.0);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j < dim; ++j) weights_[i] += cov_[i][j] * b[j];
}

void LeastSquaresModel::ensure_rls_state() {
  const std::size_t dim = pair_feature_count() + 1;
  if (weights_.size() != dim) weights_.assign(dim, 0.0);
  if (cov_.size() != dim) {
    // Diffuse prior: P = I/ridge -- a never-trained model starts RLS
    // as if ridge-regularized with no data.
    const double lambda = ridge_ > 1e-9 ? ridge_ : 1e-9;
    cov_.assign(dim, std::vector<double>(dim, 0.0));
    for (std::size_t i = 0; i < dim; ++i) cov_[i][i] = 1.0 / lambda;
  }
}

void LeastSquaresModel::observe(const TrainingPair& sample) {
  ensure_rls_state();
  const std::size_t dim = weights_.size();
  const std::vector<double> x = biased_features(sample.fg, sample.bg);
  std::vector<double> px(dim, 0.0);  // P x
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j < dim; ++j) px[i] += cov_[i][j] * x[j];
  double denom = 1.0;
  for (std::size_t i = 0; i < dim; ++i) denom += x[i] * px[i];
  double err = sample.slowdown;
  for (std::size_t i = 0; i < dim; ++i) err -= weights_[i] * x[i];
  for (std::size_t i = 0; i < dim; ++i) weights_[i] += px[i] / denom * err;
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j < dim; ++j) cov_[i][j] -= px[i] * px[j] / denom;
}

double LeastSquaresModel::predict(const WorkloadSignature& fg,
                                  const WorkloadSignature& bg) const {
  if (weights_.empty())
    throw std::logic_error{"lstsq: predict() before train()"};
  const std::vector<double> x = pair_features(fg, bg);
  double y = weights_[0];
  for (std::size_t f = 0; f < x.size(); ++f) y += weights_[f + 1] * x[f];
  return y;
}

}  // namespace coperf::predict
