#include "core/session.hpp"

namespace coperf {

Session::Session(sim::MachineConfig machine, wl::SizeClass size) {
  machine.validate();
  base_.machine = machine;
  base_.size = size;
}

std::vector<std::string> Session::applications() const {
  std::vector<std::string> out;
  for (const auto* w : wl::Registry::instance().applications())
    out.push_back(w->name);
  return out;
}

std::vector<std::string> Session::all_workloads() const {
  std::vector<std::string> out;
  for (const auto* w : wl::Registry::instance().all()) out.push_back(w->name);
  return out;
}

harness::RunResult Session::run_solo(std::string_view workload,
                                     unsigned threads) const {
  harness::RunOptions o = base_;
  o.threads = threads;
  return harness::run_solo(workload, o);
}

harness::CorunResult Session::run_pair(std::string_view fg,
                                       std::string_view bg,
                                       unsigned threads) const {
  harness::RunOptions o = base_;
  o.threads = threads;
  return harness::run_pair(fg, bg, o);
}

harness::GroupResult Session::run_group(const harness::GroupSpec& spec) const {
  return harness::run_group(spec, base_);
}

harness::ExperimentPlan Session::plan() const {
  return harness::ExperimentPlan{base_};
}

harness::ScalabilityResult Session::scalability(std::string_view workload,
                                                unsigned max_threads) const {
  return harness::scalability_sweep(workload, base_, max_threads);
}

harness::PrefetchSensitivity Session::prefetch_sensitivity(
    std::string_view workload, unsigned threads) const {
  harness::RunOptions o = base_;
  o.threads = threads;
  return harness::prefetch_sensitivity(workload, o);
}

harness::CorunMatrix Session::corun_matrix(
    unsigned reps, std::vector<std::string> subset) const {
  const harness::MatrixSpec spec{std::move(subset), reps, {}};
  harness::ExperimentPlan p = plan();
  p.add_matrix(spec);
  return p.execute().matrix(spec);
}

}  // namespace coperf
