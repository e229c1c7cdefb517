#include "cluster/placement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "harness/matrix.hpp"
#include "predict/predicted_matrix.hpp"

namespace coperf::cluster {

std::size_t RandomPolicy::place(const JobSpec& job,
                                const ClusterView& cluster) {
  (void)job;
  const std::size_t open = cluster.open_count();
  if (open == 0)
    throw std::logic_error{"RandomPolicy::place: no machine has a free slot"};
  return cluster.kth_open(rng_.below(open));
}

CostModelPolicy::CostModelPolicy(std::string name, harness::CorunMatrix estimate)
    : estimate_(std::move(estimate)), name_(std::move(name)) {
  if (estimate_.size() == 0)
    throw std::invalid_argument{"CostModelPolicy: empty estimate matrix"};
}

double placement_delta(const harness::CorunMatrix& est, std::size_t job_type,
                       double job_work, const MachineView& machine) {
  // harness::corun_slowdown inlined over the resident views so the hot
  // path allocates nothing; arithmetic is kept identical (sum the
  // excesses, clamp at 1.0).
  double excess = 0.0;
  for (const ResidentView& r : machine.residents)
    excess += est.at(job_type, r.type) - 1.0;
  double delta = (std::max(1.0, 1.0 + excess) - 1.0) * job_work;
  for (const ResidentView& r : machine.residents)
    delta += (est.at(r.type, job_type) - 1.0) * r.remaining;
  return delta;
}

double placement_delta(harness::InterferenceTruth& truth, std::size_t job_type,
                       double job_work, const MachineView& machine) {
  // Reused scratch: admission_delta takes vectors, and this is priced
  // once per candidate machine per decision -- at fleet scale that is
  // the regret-billing hot path.
  static thread_local std::vector<std::size_t> types;
  static thread_local std::vector<double> remaining;
  types.clear();
  remaining.clear();
  for (const ResidentView& r : machine.residents) {
    types.push_back(r.type);
    remaining.push_back(std::max(0.0, r.remaining));
  }
  return truth.admission_delta(job_type, job_work, types, remaining);
}

double slo_violation(harness::InterferenceTruth& truth, const JobSpec& job,
                     const MachineView& machine) {
  // Skip entirely when nothing latency-critical is involved: no tail
  // queries, so best-effort billing is byte-identical to before.
  bool any_lc = job.latency_critical();
  for (const ResidentView& r : machine.residents)
    any_lc = any_lc || r.slo_target > 0.0;
  if (!any_lc) return 0.0;
  static thread_local std::vector<std::size_t> others;
  double viol = 0.0;
  if (job.latency_critical()) {
    others.clear();
    for (const ResidentView& r : machine.residents) others.push_back(r.type);
    const double tail = truth.tail_slowdown(job.type, others);
    viol += std::max(0.0, tail - job.slo_p99) * job.work;
  }
  for (std::size_t i = 0; i < machine.residents.size(); ++i) {
    const ResidentView& victim = machine.residents[i];
    if (victim.slo_target <= 0.0) continue;
    others.clear();
    others.push_back(job.type);
    for (std::size_t j = 0; j < machine.residents.size(); ++j)
      if (j != i) others.push_back(machine.residents[j].type);
    const double tail = truth.tail_slowdown(victim.type, others);
    viol += std::max(0.0, tail - victim.slo_target) *
            std::max(0.0, victim.remaining);
  }
  return viol;
}

GroupTruthPolicy::GroupTruthPolicy(std::string name,
                                   harness::InterferenceTruth& truth)
    : truth_(truth), name_(std::move(name)) {
  if (truth_.size() == 0)
    throw std::invalid_argument{"GroupTruthPolicy: empty truth"};
}

std::size_t GroupTruthPolicy::place(const JobSpec& job,
                                    const ClusterView& cluster) {
  if (job.type >= truth_.size())
    throw std::out_of_range{"GroupTruthPolicy::place: job type outside truth"};
  std::size_t best = cluster.machines();
  double best_delta = std::numeric_limits<double>::infinity();
  const std::size_t open = cluster.open_count();
  for (std::size_t k = 0; k < open; ++k) {
    const std::size_t m = cluster.kth_open(k);
    const double delta =
        placement_delta(truth_, job.type, job.work, cluster.view(m));
    if (delta < best_delta) {
      best_delta = delta;
      best = m;
    }
  }
  if (best == cluster.machines())
    throw std::logic_error{name_ + "::place: no machine has a free slot"};
  last_delta_ = best_delta;
  return best;
}

std::size_t CostModelPolicy::place(const JobSpec& job,
                                   const ClusterView& cluster) {
  if (job.type >= estimate_.size())
    throw std::out_of_range{"CostModelPolicy::place: job type outside matrix"};
  std::size_t best = cluster.machines();
  double best_delta = std::numeric_limits<double>::infinity();
  const std::size_t open = cluster.open_count();
  for (std::size_t k = 0; k < open; ++k) {
    const std::size_t m = cluster.kth_open(k);
    const double delta =
        placement_delta(estimate_, job.type, job.work, cluster.view(m));
    if (delta < best_delta) {
      best_delta = delta;
      best = m;
    }
  }
  if (best == cluster.machines())
    throw std::logic_error{name_ + "::place: no machine has a free slot"};
  last_delta_ = best_delta;
  return best;
}

namespace {

/// Additively composed tail slowdown of `fg` against the `others` it
/// would share a machine with -- the tail matrix's analog of
/// harness::corun_slowdown, inlined allocation-free.
double composed_tail(const harness::CorunMatrix& tail, std::size_t fg,
                     const MachineView& machine, std::size_t skip,
                     std::size_t extra_type, bool has_extra) {
  double excess = 0.0;
  for (std::size_t j = 0; j < machine.residents.size(); ++j)
    if (j != skip) excess += tail.at(fg, machine.residents[j].type) - 1.0;
  if (has_extra) excess += tail.at(fg, extra_type) - 1.0;
  return std::max(1.0, 1.0 + excess);
}

}  // namespace

SloAwarePolicy::SloAwarePolicy(std::string name,
                               harness::CorunMatrix throughput,
                               harness::CorunMatrix tail)
    : throughput_(std::move(throughput)),
      tail_(std::move(tail)),
      name_(std::move(name)) {
  if (throughput_.size() == 0)
    throw std::invalid_argument{"SloAwarePolicy: empty throughput matrix"};
  if (tail_.size() != throughput_.size())
    throw std::invalid_argument{
        "SloAwarePolicy: tail/throughput axis size mismatch"};
}

std::size_t SloAwarePolicy::place(const JobSpec& job,
                                  const ClusterView& cluster) {
  if (job.type >= throughput_.size())
    throw std::out_of_range{"SloAwarePolicy::place: job type outside matrix"};
  std::size_t best = cluster.machines();
  double best_viol = std::numeric_limits<double>::infinity();
  double best_delta = std::numeric_limits<double>::infinity();
  const std::size_t open = cluster.open_count();
  for (std::size_t k = 0; k < open; ++k) {
    const std::size_t m = cluster.kth_open(k);
    const MachineView& v = cluster.view(m);
    // Predicted SLO violation: the arriving job's own composed tail
    // against its budget, plus the tail the job pushes each
    // latency-critical resident to against that resident's budget.
    double viol = 0.0;
    if (job.latency_critical()) {
      const double own = composed_tail(tail_, job.type, v, v.residents.size(),
                                       0, /*has_extra=*/false);
      viol += std::max(0.0, own - job.slo_p99) * job.work;
    }
    for (std::size_t i = 0; i < v.residents.size(); ++i) {
      const ResidentView& r = v.residents[i];
      if (r.slo_target <= 0.0) continue;
      const double rt =
          composed_tail(tail_, r.type, v, i, job.type, /*has_extra=*/true);
      viol += std::max(0.0, rt - r.slo_target) * std::max(0.0, r.remaining);
    }
    const double delta = placement_delta(throughput_, job.type, job.work, v);
    if (viol < best_viol || (viol == best_viol && delta < best_delta)) {
      best_viol = viol;
      best_delta = delta;
      best = m;
    }
  }
  if (best == cluster.machines())
    throw std::logic_error{name_ + "::place: no machine has a free slot"};
  last_delta_ = best_delta;
  last_violation_ = best_viol;
  if (best_viol > 0.0) ++forced_;
  return best;
}

OnlineRefinedPolicy::OnlineRefinedPolicy(
    std::string name, std::unique_ptr<predict::InterferenceModel> model,
    std::vector<predict::WorkloadSignature> sigs)
    : CostModelPolicy(std::move(name),
                      predict::predicted_matrix(sigs, *model)),
      model_(std::move(model)),
      sigs_(std::move(sigs)),
      observed_(sigs_.size(),
                std::vector<double>(sigs_.size(),
                                    std::numeric_limits<double>::quiet_NaN())),
      decon_(sigs_.size()) {
  // Deconvolution starts from the model's predictions, not from
  // zero-knowledge harmony: an early, under-determined group equation
  // then adjusts a calibrated estimate instead of replacing it.
  decon_.seed_prior(estimate_);
}

std::size_t OnlineRefinedPolicy::place(const JobSpec& job,
                                       const ClusterView& cluster) {
  refresh_unobserved();
  return CostModelPolicy::place(job, cluster);
}

void OnlineRefinedPolicy::observe_pair(std::size_t fg_type,
                                       std::size_t bg_type, double slowdown) {
  if (fg_type >= sigs_.size() || bg_type >= sigs_.size())
    throw std::out_of_range{"OnlineRefinedPolicy: observed type outside matrix"};
  double& seen = observed_[fg_type][bg_type];
  if (seen == slowdown) return;  // an exact repeat teaches nothing
  if (std::isnan(seen)) ++observed_count_;
  seen = slowdown;
  model_->observe({sigs_[fg_type], sigs_[bg_type], slowdown});
  // Measured fallback: the observed cell becomes ground truth now; the
  // remaining cells are re-predicted lazily at the next placement, so
  // a burst of observations costs one refresh, not one per pair.
  estimate_.normalized[fg_type][bg_type] = std::max(1.0, slowdown);
  estimate_stale_ = true;
}

void OnlineRefinedPolicy::observe_group(const std::vector<std::size_t>& types,
                                        const std::vector<double>& slowdowns) {
  if (types.size() != slowdowns.size())
    throw std::invalid_argument{
        "OnlineRefinedPolicy: group types/slowdowns size mismatch"};
  if (types.size() <= 2) {
    // A 2-resident outcome is two exact pair samples: the measured
    // fallback + model observe() path.
    CostModelPolicy::observe_group(types, slowdowns);
    return;
  }
  // 3+-resident outcome: one deconvolution equation per member.
  for (std::size_t i = 0; i < types.size(); ++i) {
    if (types[i] >= sigs_.size())
      throw std::out_of_range{
          "OnlineRefinedPolicy: observed type outside matrix"};
    decon_.observe(types[i], harness::others_excluding(types, i),
                   slowdowns[i]);
  }
  estimate_stale_ = true;
}

std::size_t OnlineRefinedPolicy::deconvolved_cells() const {
  std::size_t cells = 0;
  for (std::size_t i = 0; i < sigs_.size(); ++i)
    for (std::size_t j = 0; j < sigs_.size(); ++j)
      if (std::isnan(observed_[i][j]) && decon_.support(i, j) > 0) ++cells;
  return cells;
}

void OnlineRefinedPolicy::refresh_unobserved() {
  if (!estimate_stale_) return;
  // Priority per cell: direct pair observation (pinned, skipped here)
  // > deconvolved estimate from 3+-resident outcomes > model
  // prediction.
  for (std::size_t i = 0; i < sigs_.size(); ++i)
    for (std::size_t j = 0; j < sigs_.size(); ++j)
      if (std::isnan(observed_[i][j]))
        estimate_.normalized[i][j] =
            decon_.support(i, j) > 0
                ? decon_.entry(i, j)
                : std::max(1.0, model_->predict(sigs_[i], sigs_[j]));
  estimate_stale_ = false;
}

}  // namespace coperf::cluster
