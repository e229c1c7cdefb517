#include "predict/deconvolve.hpp"

#include <algorithm>
#include <stdexcept>

namespace coperf::predict {

PairDeconvolver::PairDeconvolver(std::size_t types, double ridge) : n_(types) {
  if (n_ == 0)
    throw std::invalid_argument{"PairDeconvolver: need at least one type"};
  if (ridge <= 0.0)
    throw std::invalid_argument{"PairDeconvolver: ridge must be positive"};
  excess_.assign(n_, std::vector<double>(n_, 0.0));
  support_.assign(n_, std::vector<std::uint64_t>(n_, 0));
  cov_.assign(n_, std::vector<std::vector<double>>(
                      n_, std::vector<double>(n_, 0.0)));
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t i = 0; i < n_; ++i) cov_[r][i][i] = 1.0 / ridge;
}

void PairDeconvolver::seed_prior(const harness::CorunMatrix& prior) {
  if (observations_ != 0)
    throw std::logic_error{
        "PairDeconvolver::seed_prior: prior must be set before observations"};
  if (prior.size() != n_)
    throw std::invalid_argument{
        "PairDeconvolver::seed_prior: axis size mismatch"};
  for (std::size_t fg = 0; fg < n_; ++fg)
    for (std::size_t bg = 0; bg < n_; ++bg)
      excess_[fg][bg] = prior.at(fg, bg) - 1.0;
}

void PairDeconvolver::observe(std::size_t type,
                              const std::vector<std::size_t>& others,
                              double slowdown) {
  if (type >= n_)
    throw std::out_of_range{"PairDeconvolver: type outside the axis"};
  if (others.empty())
    throw std::invalid_argument{
        "PairDeconvolver: a solo run carries no pairwise information"};
  // phi = co-resident count vector; y = observed excess.
  std::vector<double> phi(n_, 0.0);
  for (const std::size_t o : others) {
    if (o >= n_)
      throw std::out_of_range{"PairDeconvolver: co-resident outside the axis"};
    phi[o] += 1.0;
  }
  const double y = slowdown - 1.0;

  // Standard RLS on this foreground's row: one rank-1 refresh of the
  // weights and the inverse normal matrix.
  std::vector<double>& w = excess_[type];
  std::vector<std::vector<double>>& P = cov_[type];
  std::vector<double> Pphi(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n_; ++j) acc += P[i][j] * phi[j];
    Pphi[i] = acc;
  }
  double denom = 1.0;
  double pred = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    denom += phi[i] * Pphi[i];
    pred += phi[i] * w[i];
  }
  const double err = y - pred;
  for (std::size_t i = 0; i < n_; ++i) w[i] += Pphi[i] / denom * err;
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t j = 0; j < n_; ++j)
      P[i][j] -= Pphi[i] * Pphi[j] / denom;

  for (std::size_t o = 0; o < n_; ++o)
    if (phi[o] > 0.0) ++support_[type][o];
  ++observations_;
}

double PairDeconvolver::entry(std::size_t fg, std::size_t bg) const {
  if (fg >= n_ || bg >= n_)
    throw std::out_of_range{"PairDeconvolver::entry: index outside the axis"};
  return std::max(1.0, 1.0 + excess_[fg][bg]);
}

std::uint64_t PairDeconvolver::support(std::size_t fg, std::size_t bg) const {
  if (fg >= n_ || bg >= n_)
    throw std::out_of_range{"PairDeconvolver::support: index outside the axis"};
  return support_[fg][bg];
}

}  // namespace coperf::predict
