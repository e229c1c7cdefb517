#include "harness/runner.hpp"

#include "harness/group.hpp"

namespace coperf::harness {

RunResult run_solo(std::string_view workload, const RunOptions& opt) {
  return run_group(GroupSpec::solo(std::string{workload}, opt.threads), opt)
      .members[0];
}

CorunResult run_pair(std::string_view fg, std::string_view bg,
                     const RunOptions& opt) {
  return to_corun(run_group(GroupSpec::pair(std::string{fg}, std::string{bg},
                                            opt.threads, opt.bg_threads),
                            opt));
}

RunResult run_solo_median(std::string_view workload, const RunOptions& opt,
                          unsigned reps) {
  return run_group_median(GroupSpec::solo(std::string{workload}, opt.threads),
                          opt, reps)
      .members[0];
}

}  // namespace coperf::harness
