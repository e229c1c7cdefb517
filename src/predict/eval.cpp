#include "predict/eval.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace coperf::predict {

namespace {

/// Ranks with average ties (Spearman prerequisite).
std::vector<double> ranks(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> r(v.size(), 0.0);
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) ++j;
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) r[order[k]] = avg;
    i = j + 1;
  }
  return r;
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void check_axes(const harness::CorunMatrix& a, const harness::CorunMatrix& b) {
  if (a.workloads != b.workloads)
    throw std::invalid_argument{
        "predictor eval: matrices cover different workloads"};
}

}  // namespace

std::size_t Confusion::total() const {
  std::size_t t = 0;
  for (const auto& row : counts)
    for (std::size_t c : row) t += c;
  return t;
}

std::size_t Confusion::agree() const {
  return counts[0][0] + counts[1][1] + counts[2][2];
}

double Confusion::agreement() const {
  const std::size_t t = total();
  return t == 0 ? 1.0 : static_cast<double>(agree()) / static_cast<double>(t);
}

std::string EvalResult::summary() const {
  static const char* kClass[3] = {"Harmony", "V-Offender", "Both-Victim"};
  std::ostringstream os;
  os.precision(3);
  os << "cells evaluated : " << cells << "\n"
     << "MAE             : " << mae << "\n"
     << "RMSE            : " << rmse << "\n"
     << "Spearman rho    : " << spearman << "\n"
     << "class agreement : " << confusion.agree() << "/" << confusion.total()
     << " (" << 100.0 * confusion.agreement() << "%)\n"
     << "confusion (rows = measured, cols = predicted):\n";
  os << "                 ";
  for (const char* c : kClass) os << c << "  ";
  os << "\n";
  for (int r = 0; r < 3; ++r) {
    os << "  " << kClass[r];
    for (std::size_t pad = std::string{kClass[r]}.size(); pad < 15; ++pad)
      os << ' ';
    for (int c = 0; c < 3; ++c) os << confusion.counts[r][c] << "        ";
    os << "\n";
  }
  return os.str();
}

EvalResult evaluate(const harness::CorunMatrix& measured,
                    const harness::CorunMatrix& predicted) {
  check_axes(measured, predicted);
  EvalResult e;
  std::vector<double> mv, pv;
  const std::size_t n = measured.size();
  for (std::size_t fg = 0; fg < n; ++fg) {
    for (std::size_t bg = 0; bg < n; ++bg) {
      const double m = measured.at(fg, bg);
      const double p = predicted.at(fg, bg);
      mv.push_back(m);
      pv.push_back(p);
      e.mae += std::abs(p - m);
      e.rmse += (p - m) * (p - m);
    }
  }
  e.cells = mv.size();
  if (e.cells > 0) {
    e.mae /= static_cast<double>(e.cells);
    e.rmse = std::sqrt(e.rmse / static_cast<double>(e.cells));
  }
  e.spearman = pearson(ranks(mv), ranks(pv));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j)
      ++e.confusion.counts[static_cast<int>(measured.pair_class(i, j))]
                          [static_cast<int>(predicted.pair_class(i, j))];
  return e;
}

EvalResult leave_one_out(
    const harness::CorunMatrix& measured,
    const std::vector<WorkloadSignature>& sigs,
    const std::function<std::unique_ptr<TrainableModel>()>& new_model,
    harness::CorunMatrix* predicted_out) {
  if (measured.size() != sigs.size() || sigs.empty())
    throw std::invalid_argument{"leave_one_out: matrix/signature mismatch"};
  const std::size_t n = sigs.size();
  if (n < 3)
    throw std::invalid_argument{
        "leave_one_out: need >= 3 workloads to hold one out"};

  harness::CorunMatrix predicted;
  predicted.workloads = measured.workloads;
  predicted.solo_cycles = measured.solo_cycles;
  predicted.normalized.assign(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<unsigned>> votes(n, std::vector<unsigned>(n, 0));

  for (std::size_t held = 0; held < n; ++held) {
    std::vector<TrainingPair> train;
    for (std::size_t fg = 0; fg < n; ++fg)
      for (std::size_t bg = 0; bg < n; ++bg)
        if (fg != held && bg != held)
          train.push_back({sigs[fg], sigs[bg], measured.at(fg, bg)});
    auto model = new_model();
    model->train(train);
    // Predict the held-out workload's row and column; off-diagonal
    // cells receive one vote from each side's fold and are averaged.
    for (std::size_t bg = 0; bg < n; ++bg) {
      predicted.normalized[held][bg] +=
          std::max(1.0, model->predict(sigs[held], sigs[bg]));
      ++votes[held][bg];
    }
    for (std::size_t fg = 0; fg < n; ++fg) {
      if (fg == held) continue;  // (held, held) already counted above
      predicted.normalized[fg][held] +=
          std::max(1.0, model->predict(sigs[fg], sigs[held]));
      ++votes[fg][held];
    }
  }
  for (std::size_t fg = 0; fg < n; ++fg)
    for (std::size_t bg = 0; bg < n; ++bg)
      predicted.normalized[fg][bg] /= static_cast<double>(votes[fg][bg]);
  const EvalResult e = evaluate(measured, predicted);
  if (predicted_out) *predicted_out = std::move(predicted);
  return e;
}

GroupEval evaluate_groups(const std::vector<harness::GroupObservation>& obs,
                          const std::vector<WorkloadSignature>& sigs,
                          const harness::CorunMatrix& measured_pairs,
                          const InterferenceModel& model) {
  if (measured_pairs.size() != sigs.size())
    throw std::invalid_argument{
        "evaluate_groups: pairwise matrix / signature axis mismatch"};
  GroupEval e;
  std::vector<double> measured_v, model_v;
  for (const harness::GroupObservation& o : obs) {
    if (o.others.empty()) continue;
    if (o.type >= sigs.size())
      throw std::out_of_range{"evaluate_groups: type outside the axis"};
    std::vector<WorkloadSignature> others;
    others.reserve(o.others.size());
    for (const std::size_t t : o.others) {
      if (t >= sigs.size())
        throw std::out_of_range{"evaluate_groups: co-resident outside axis"};
      others.push_back(sigs[t]);
    }
    const double predicted = model.predict_group(sigs[o.type], others);
    const double composed =
        harness::corun_slowdown(measured_pairs, o.type, o.others);
    measured_v.push_back(o.slowdown);
    model_v.push_back(predicted);
    e.model_mae += std::abs(predicted - o.slowdown);
    e.model_rmse += (predicted - o.slowdown) * (predicted - o.slowdown);
    e.additive_mae += std::abs(composed - o.slowdown);
    e.additive_rmse += (composed - o.slowdown) * (composed - o.slowdown);
    e.max_additive_gap =
        std::max(e.max_additive_gap, std::abs(composed - o.slowdown));
  }
  e.observations = measured_v.size();
  if (e.observations > 0) {
    const double n = static_cast<double>(e.observations);
    e.model_mae /= n;
    e.model_rmse = std::sqrt(e.model_rmse / n);
    e.additive_mae /= n;
    e.additive_rmse = std::sqrt(e.additive_rmse / n);
    e.model_spearman = pearson(ranks(measured_v), ranks(model_v));
  }
  return e;
}

}  // namespace coperf::predict
