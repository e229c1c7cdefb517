#include "predict/predicted_matrix.hpp"

#include <algorithm>
#include <stdexcept>

namespace coperf::predict {

harness::CorunMatrix predicted_matrix(
    const std::vector<WorkloadSignature>& sigs,
    const InterferenceModel& model) {
  if (sigs.empty())
    throw std::invalid_argument{"predicted_matrix: no signatures"};
  harness::CorunMatrix m;
  const std::size_t n = sigs.size();
  m.workloads.reserve(n);
  m.solo_cycles.reserve(n);
  for (const auto& s : sigs) {
    m.workloads.push_back(s.workload);
    m.solo_cycles.push_back(s.solo_cycles);
  }
  m.normalized.assign(n, std::vector<double>(n, 1.0));
  for (std::size_t fg = 0; fg < n; ++fg)
    for (std::size_t bg = 0; bg < n; ++bg)
      m.normalized[fg][bg] = std::max(1.0, model.predict(sigs[fg], sigs[bg]));
  return m;
}

std::vector<TrainingPair> training_pairs(
    const harness::CorunMatrix& measured,
    const std::vector<WorkloadSignature>& sigs) {
  if (measured.size() != sigs.size())
    throw std::invalid_argument{
        "training_pairs: matrix/signature count mismatch"};
  for (std::size_t i = 0; i < sigs.size(); ++i)
    if (measured.workloads[i] != sigs[i].workload)
      throw std::invalid_argument{
          "training_pairs: matrix and signatures disagree on axis order at '" +
          measured.workloads[i] + "'"};
  std::vector<TrainingPair> pairs;
  pairs.reserve(sigs.size() * sigs.size());
  for (std::size_t fg = 0; fg < sigs.size(); ++fg)
    for (std::size_t bg = 0; bg < sigs.size(); ++bg)
      pairs.push_back({sigs[fg], sigs[bg], measured.at(fg, bg)});
  return pairs;
}

}  // namespace coperf::predict
