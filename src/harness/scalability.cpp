#include "harness/scalability.hpp"

#include <algorithm>

namespace coperf::harness {

const char* to_string(ScalClass c) {
  switch (c) {
    case ScalClass::Low: return "Low";
    case ScalClass::Medium: return "Medium";
    case ScalClass::High: return "High";
  }
  return "?";
}

double ScalabilityResult::max_speedup() const {
  return speedup.empty() ? 0.0 : *std::max_element(speedup.begin(), speedup.end());
}

ScalClass classify_scalability(double s_max, const ScalThresholds& t) {
  if (s_max < t.low_below) return ScalClass::Low;
  if (s_max < t.high_at_least) return ScalClass::Medium;
  return ScalClass::High;
}

}  // namespace coperf::harness
