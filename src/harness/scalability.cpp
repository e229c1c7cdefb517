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

ScalClass classify_scalability(double s_max) {
  if (s_max < 2.5) return ScalClass::Low;
  if (s_max < 5.0) return ScalClass::Medium;
  return ScalClass::High;
}

}  // namespace coperf::harness
