#include "harness/matrix.hpp"

namespace coperf::harness {

PairClass CorunMatrix::pair_class(std::size_t i, std::size_t j) const {
  return classify_pair(normalized[i][j], normalized[j][i]);
}

CorunMatrix::ClassCounts CorunMatrix::count_classes() const {
  ClassCounts c;
  for (std::size_t i = 0; i < size(); ++i) {
    for (std::size_t j = i; j < size(); ++j) {
      switch (pair_class(i, j)) {
        case PairClass::Harmony: ++c.harmony; break;
        case PairClass::VictimOffender: ++c.victim_offender; break;
        case PairClass::BothVictim: ++c.both_victim; break;
      }
    }
  }
  return c;
}

}  // namespace coperf::harness
