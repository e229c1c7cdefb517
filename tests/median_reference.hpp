// Reference median of repeated runs for tests: run_group at seeds
// opt.seed+0..reps-1, ranked by member 0's cycles, middle run returned.
// ResultSet::group/solo must reproduce it from a plan's trials.
#pragma once

#include <algorithm>
#include <vector>

#include "harness/group.hpp"

namespace coperf::harness {

inline GroupResult median_of_runs(const GroupSpec& spec, const RunOptions& opt,
                                  unsigned reps) {
  std::vector<GroupResult> runs;
  for (unsigned r = 0; r < reps; ++r) {
    RunOptions o = opt;
    o.seed = opt.seed + r;
    runs.push_back(run_group(spec, o));
  }
  std::sort(runs.begin(), runs.end(),
            [](const GroupResult& a, const GroupResult& b) {
              return a.members[0].cycles < b.members[0].cycles;
            });
  return runs[runs.size() / 2];
}

}  // namespace coperf::harness
