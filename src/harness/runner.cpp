#include "harness/runner.hpp"

#include "harness/group.hpp"

namespace coperf::harness {

RunResult run_solo(std::string_view workload, const RunOptions& opt) {
  return run_group(GroupSpec::solo(std::string{workload}, opt.threads), opt)
      .members[0];
}

}  // namespace coperf::harness
