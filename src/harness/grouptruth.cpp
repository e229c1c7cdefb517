#include "harness/grouptruth.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "harness/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "wl/registry.hpp"

namespace coperf::harness {

std::vector<std::size_t> others_excluding(const std::vector<std::size_t>& group,
                                          std::size_t i) {
  if (i >= group.size())
    throw std::out_of_range{"others_excluding: member outside the group"};
  std::vector<std::size_t> others;
  others.reserve(group.size() - 1);
  for (std::size_t j = 0; j < group.size(); ++j)
    if (j != i) others.push_back(group[j]);
  return others;
}

// --- InterferenceTruth ----------------------------------------------

void InterferenceTruth::count_fallbacks(std::uint64_t n) {
  // Most billed candidates count none: skip the process-wide atomic.
  if (n == 0) return;
  fallbacks_ += n;
  static obs::Counter& ctr =
      obs::Registry::instance().counter("truth.pairwise_fallbacks");
  ctr.add(n);
}

double InterferenceTruth::admission_terms(std::size_t job_type,
                                          double job_work,
                                          const std::vector<std::size_t>& types,
                                          std::vector<double>& coef) {
  const double own = (slowdown(job_type, types) - 1.0) * job_work;
  coef.clear();
  for (std::size_t i = 0; i < types.size(); ++i) {
    std::vector<std::size_t> others = others_excluding(types, i);
    const double without = slowdown(types[i], others);
    others.push_back(job_type);
    const double with_job = slowdown(types[i], others);
    coef.push_back(with_job - without);
  }
  return own;
}

double InterferenceTruth::admission_delta(
    std::size_t job_type, double job_work,
    const std::vector<std::size_t>& residents,
    const std::vector<double>& remaining) {
  if (residents.size() != remaining.size())
    throw std::invalid_argument{
        "admission_delta: residents/remaining size mismatch"};
  static thread_local std::vector<double> coef;
  double delta = admission_terms(job_type, job_work, residents, coef);
  for (std::size_t i = 0; i < residents.size(); ++i)
    delta += coef[i] * remaining[i];
  return delta;
}

// --- MatrixTruth ----------------------------------------------------

MatrixTruth::MatrixTruth(CorunMatrix m) : matrix_(std::move(m)) {
  if (matrix_.size() == 0)
    throw std::invalid_argument{"MatrixTruth: empty matrix"};
}

double MatrixTruth::slowdown(std::size_t type,
                             const std::vector<std::size_t>& others) {
  if (others.size() >= 2) count_fallbacks();  // composed, not measured
  // corun_slowdown exactly, clamp included, so event-loop progress is
  // bit-identical to the legacy simulator even for sub-1.0 entries.
  // Raw pair entries are served by pairwise() -- the feedback path the
  // simulator reports observations from, as the old loop did.
  return corun_slowdown(matrix_, type, others);
}

double MatrixTruth::admission_terms(std::size_t job_type, double job_work,
                                    const std::vector<std::size_t>& types,
                                    std::vector<double>& coef) {
  // Count exactly the composed queries the default oracle formula
  // would have issued (the job's group, plus each resident's
  // with-job and without-job groups), so pairwise_fallbacks means
  // the same thing whichever truth backend billed the run.
  const std::size_t r = types.size();
  count_fallbacks((r >= 2 ? 1 : 0) +
                  r * ((r >= 2 ? 1 : 0) + (r >= 3 ? 1 : 0)));
  // The pre-grouptruth billing, verbatim: the job's composed slowdown
  // for its own work, plus the raw pair excess it inflicts on each
  // resident. (The default group formula reduces to this when the
  // matrix entries are >= 1; entries below 1 would differ through the
  // clamp, so the legacy arithmetic is kept exactly.)
  return harness::admission_terms(matrix_, job_type, job_work, types, coef);
}

// --- GroupTruth -----------------------------------------------------

GroupTruth::GroupTruth(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.workloads.empty())
    throw std::invalid_argument{"GroupTruth: empty workload axis"};
  for (const std::string& w : cfg_.workloads)
    (void)wl::Registry::instance().at(w);  // unknown names fail here
  if (cfg_.member_threads == 0)
    throw std::invalid_argument{"GroupTruth: member_threads must be >= 1"};
  if (cfg_.reps == 0)
    throw std::invalid_argument{"GroupTruth: reps must be >= 1"};
  if (cfg_.max_arity < 2)
    throw std::invalid_argument{
        "GroupTruth: max_arity must be >= 2 (pairs are the smallest group)"};
  if (cfg_.max_arity * cfg_.member_threads > cfg_.opt.machine.num_cores)
    throw std::invalid_argument{
        "GroupTruth: max_arity * member_threads = " +
        std::to_string(cfg_.max_arity * cfg_.member_threads) +
        " cores exceeds the machine's " +
        std::to_string(cfg_.opt.machine.num_cores)};
}

GroupTruth::Key GroupTruth::make_key(std::size_t type,
                                     std::vector<std::size_t> others) {
  std::sort(others.begin(), others.end());
  Key key;
  key.reserve(others.size() + 1);
  key.push_back(type);
  key.insert(key.end(), others.begin(), others.end());
  return key;
}

GroupSpec GroupTruth::trial_spec(const Key& key) const {
  GroupSpec s;
  s.members.push_back(
      MemberSpec{cfg_.workloads[key[0]], cfg_.member_threads, {}, false});
  for (std::size_t i = 1; i < key.size(); ++i)
    s.members.push_back(
        MemberSpec{cfg_.workloads[key[i]], cfg_.member_threads, {}, true});
  return s;
}

GroupTruth::PlanStats GroupTruth::measure(const std::vector<Key>& keys,
                                          ExperimentPlan::Progress progress) {
  ExperimentPlan plan{cfg_.opt};
  std::vector<Key> pending;
  std::vector<std::size_t> solo_pending;
  for (const Key& key : keys) {
    if (measured_.count(key) != 0) continue;
    for (const std::size_t t : key)
      if (t >= cfg_.workloads.size())
        throw std::out_of_range{"GroupTruth: type outside the axis"};
    if (key.size() > cfg_.max_arity)
      throw std::logic_error{"GroupTruth: measuring beyond max_arity"};
    plan.add_group(trial_spec(key), cfg_.reps);
    pending.push_back(key);
  }
  // Solo baselines for every foreground the pending keys normalize by.
  for (const Key& key : pending)
    if (solos_.count(key[0]) == 0) {
      plan.add_solo(
          SoloSpec{cfg_.workloads[key[0]], cfg_.member_threads, cfg_.reps});
      solo_pending.push_back(key[0]);
    }
  PlanStats stats{plan.trial_count(), plan.residue_count()};
  if (plan.trial_count() == 0) return stats;
  const obs::Trace::Span span{"grouptruth.measure",
                              obs::Args{}
                                  .set("groups", pending.size())
                                  .set("trials", stats.trials)
                                  .set("residue", stats.residue)
                                  .str()};
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("grouptruth.measured_groups").add(pending.size());
  const ResultSet rs = plan.execute(cfg_.host_threads, std::move(progress));
  for (const std::size_t t : solo_pending)
    solos_.emplace(
        t, rs.solo(SoloSpec{cfg_.workloads[t], cfg_.member_threads, cfg_.reps}));
  for (const Key& key : pending) {
    const GroupResult& g = rs.group(trial_spec(key), cfg_.reps);
    // A cycle-limit-cut foreground never finished: the ratio below is
    // a lower bound on the true slowdown, not a measurement. Keep it
    // (the best information available) but count it so consumers can
    // warn -- see truncated_trials().
    if (g.members[0].hit_cycle_limit) {
      ++truncated_;
      reg.counter("grouptruth.truncated").add();
    }
    const RunResult& solo_base = solos_.at(key[0]);
    const double solo_cycles = static_cast<double>(solo_base.cycles);
    Measurement& m = measured_[key];
    m.slowdown = solo_cycles > 0.0
                     ? static_cast<double>(g.members[0].cycles) / solo_cycles
                     : 1.0;
    // Tail ratio only when both sides actually recorded requests (a
    // serving foreground); batch foregrounds fall back to throughput,
    // so tail_slowdown() is total over the axis either way.
    const double solo_p99 = solo_base.latency.quantile(0.99);
    m.tail = (g.members[0].latency.count > 0 && solo_base.latency.count > 0 &&
              solo_p99 > 0.0)
                 ? g.members[0].latency.quantile(0.99) / solo_p99
                 : m.slowdown;
  }
  return stats;
}

double GroupTruth::slowdown(std::size_t type,
                            const std::vector<std::size_t>& others) {
  if (type >= cfg_.workloads.size())
    throw std::out_of_range{"GroupTruth::slowdown: type outside the axis"};
  if (others.empty()) return 1.0;
  if (others.size() + 1 > cfg_.max_arity) {
    count_fallbacks();
    return corun_slowdown(pairwise(), type, others);
  }
  const Key key = make_key(type, others);
  auto it = measured_.find(key);
  if (it == measured_.end()) {
    measure({key}, {});
    it = measured_.find(key);
  }
  return it->second.slowdown;
}

double GroupTruth::tail_slowdown(std::size_t type,
                                 const std::vector<std::size_t>& others) {
  if (type >= cfg_.workloads.size())
    throw std::out_of_range{"GroupTruth::tail_slowdown: type outside the axis"};
  if (others.empty()) return 1.0;
  if (others.size() + 1 > cfg_.max_arity)
    return slowdown(type, others);  // composed fallback, counted there
  const Key key = make_key(type, others);
  auto it = measured_.find(key);
  if (it == measured_.end()) {
    measure({key}, {});
    it = measured_.find(key);
  }
  return it->second.tail;
}

const CorunMatrix& GroupTruth::pairwise() {
  if (pairwise_built_) return matrix_;
  const std::size_t n = cfg_.workloads.size();
  std::vector<Key> keys;
  keys.reserve(n * n);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b) keys.push_back(make_key(a, {b}));
  measure(keys, {});
  matrix_.workloads = cfg_.workloads;
  matrix_.solo_cycles.clear();
  for (std::size_t a = 0; a < n; ++a)
    matrix_.solo_cycles.push_back(solo(a).cycles);
  matrix_.normalized.assign(n, std::vector<double>(n, 1.0));
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b)
      matrix_.normalized[a][b] = measured_.at(make_key(a, {b})).slowdown;
  pairwise_built_ = true;
  return matrix_;
}

GroupTruth::PlanStats GroupTruth::prefetch(
    const std::vector<std::vector<std::size_t>>& groups,
    ExperimentPlan::Progress progress) {
  std::vector<Key> keys;
  for (const std::vector<std::size_t>& group : groups) {
    if (group.size() < 2)
      throw std::invalid_argument{
          "GroupTruth: a measured group needs >= 2 residents"};
    if (group.size() > cfg_.max_arity)
      throw std::invalid_argument{
          "GroupTruth: group larger than max_arity -- raise Config::max_arity"};
    // One trial per distinct member type: that member foreground, the
    // rest backgrounds.
    std::vector<std::size_t> sorted = group;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0 && sorted[i] == sorted[i - 1]) continue;
      keys.push_back(make_key(sorted[i], others_excluding(sorted, i)));
    }
  }
  return measure(keys, std::move(progress));
}

GroupTruth::PlanStats GroupTruth::prefetch_all(
    unsigned max_group, ExperimentPlan::Progress progress) {
  max_group = std::min(max_group, cfg_.max_arity);
  if (max_group < 2)
    throw std::invalid_argument{"GroupTruth::prefetch_all: max_group < 2"};
  const std::size_t n = cfg_.workloads.size();
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> current;
  // Multisets of each size, non-decreasing type order.
  const auto enumerate = [&](auto&& self, std::size_t first,
                             unsigned left) -> void {
    if (left == 0) {
      groups.push_back(current);
      return;
    }
    for (std::size_t t = first; t < n; ++t) {
      current.push_back(t);
      self(self, t, left - 1);
      current.pop_back();
    }
  };
  for (unsigned size = 2; size <= max_group; ++size)
    enumerate(enumerate, 0, size);
  const obs::Trace::Span span{"grouptruth.prefetch_all",
                              obs::Args{}
                                  .set("axis", n)
                                  .set("max_group", max_group)
                                  .set("multisets", groups.size())
                                  .str()};
  const PlanStats stats = prefetch(groups, std::move(progress));
  (void)pairwise();  // size-2 multisets are already measured: zero new trials
  return stats;
}

const RunResult& GroupTruth::solo(std::size_t type) {
  if (type >= cfg_.workloads.size())
    throw std::out_of_range{"GroupTruth::solo: type outside the axis"};
  auto it = solos_.find(type);
  if (it == solos_.end()) {
    ExperimentPlan plan{cfg_.opt};
    const SoloSpec spec{cfg_.workloads[type], cfg_.member_threads, cfg_.reps};
    plan.add_solo(spec);
    const ResultSet rs = plan.execute(cfg_.host_threads);
    it = solos_.emplace(type, rs.solo(spec)).first;
  }
  return it->second;
}

std::vector<GroupObservation> GroupTruth::observations() const {
  std::vector<GroupObservation> obs;
  obs.reserve(measured_.size());
  for (const auto& [key, m] : measured_) {
    GroupObservation o;
    o.type = key[0];
    o.others.assign(key.begin() + 1, key.end());
    o.slowdown = m.slowdown;
    o.tail_slowdown = m.tail;
    obs.push_back(std::move(o));
  }
  return obs;
}

}  // namespace coperf::harness
