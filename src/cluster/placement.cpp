#include "cluster/placement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "cluster/open_classes.hpp"
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

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The open machine with the lowest `cost(m, view(m))`, and that cost.
/// Walks kth_open in ascending order and keeps the incumbent unless a
/// candidate is strictly cheaper, so ties go to the lowest index. The
/// first open machine is the initial incumbent, so a job lands even
/// when every candidate prices at +inf. `floor` is a cost no candidate
/// can price below: once the incumbent prices at it, no later machine
/// can replace it, so the scan stops there with the same pick (a NaN
/// incumbent is never replaced either, but the scan goes on pricing,
/// so a caller that records every price sees them all). The one
/// candidate scan behind every cost-driven policy and the regret bill.
template <class Price, class Cost>
auto cheapest(const ClusterView& cluster, const std::string& who, Price floor,
              Cost cost) {
  const std::size_t open = cluster.open_count();
  if (open == 0)
    throw std::logic_error{who + "::place: no machine has a free slot"};
  std::size_t best = cluster.kth_open(0);
  Price best_cost = cost(best, cluster.view(best));
  for (std::size_t k = 1; k < open && !(best_cost <= floor); ++k) {
    const std::size_t m = cluster.kth_open(k);
    const Price c = cost(m, cluster.view(m));
    if (c < best_cost) {
      best_cost = c;
      best = m;
    }
  }
  return std::pair{best, best_cost};
}

/// What cheapest_by_class() found: cheapest()'s pick and cost, and the
/// exact price of one more machine the caller asked about (0 when that
/// machine is not open, as a scan that never reaches it would leave
/// it).
struct ClassPick {
  std::size_t machine = 0;
  double cost = 0.0;
  double chosen = 0.0;
};

/// The argmin of a linear price through the class index: the open
/// machine whose price is least, lowest index on ties -- cheapest()'s
/// pick and cost, exactly -- or nothing when the index cannot vouch for
/// it (a class whose rate invariant broke). `terms(types, members,
/// coef)` returns the own term of a class whose residents have `types`
/// (slot order) and fills its per-slot coefficients, as
/// harness::admission_terms() or InterferenceTruth::admission_terms()
/// do; it is asked once per live class, on behalf of that class's
/// `members` machines.
///
/// Every member of a class prices as F(r) = A + sum_i coef_i * r_i,
/// summed in slot order with the class's own A and coefficients; only
/// the residents' remaining work r differs. That is placement_delta's
/// and admission_delta's sum, so a member priced from its class's terms
/// is priced bit for bit as the scan prices it. Each float operation is
/// monotone in its operands, so F evaluated at bounds on the r_i (the
/// least where coef_i >= 0, the most where it is < 0) is a lower bound
/// on every member's exact price. A class whose bound exceeds the
/// incumbent is skipped; the others are walked along one slot's
/// remaining work, where each member's bound also holds for every later
/// one, and the walk stops at the first bound above the incumbent.
/// Members inside the bounds are priced exactly, so ties are decided on
/// exact prices. Prices large enough to overflow void the bounds: the
/// pick then comes from cheapest()'s scan with `floor`, still priced
/// from the class terms, so no terms are asked for twice.
template <class Terms>
std::optional<ClassPick> cheapest_by_class(const OpenClasses& classes,
                                           const ClusterView& cluster,
                                           const std::string& who, double floor,
                                           std::size_t chosen, Terms terms) {
  if (!classes.ordered() || classes.live().empty()) return std::nullopt;
  struct Term {
    double coef, least, most;  ///< remaining work in [least, most]
  };
  /// A live class: its own term, its bound, and its terms in `slots`.
  struct Row {
    double own, bound;
    std::uint32_t c, first, n;
  };
  struct Scratch {
    std::vector<Term> slots;
    std::vector<Row> rows;
    std::vector<std::uint32_t> row_of;  ///< class -> row
    std::vector<std::size_t> types;
    std::vector<double> coef;
  };
  static thread_local Scratch scratch;
  auto& [slots, rows, row_of, types, coef] = scratch;
  slots.clear();
  rows.clear();
  bool bounded = true;
  for (const std::uint32_t c : classes.live()) {
    types.assign(classes.types(c).begin(), classes.types(c).end());
    const double own = terms(types, classes.size(c), coef);
    if (c >= row_of.size()) row_of.resize(c + 1);
    row_of[c] = static_cast<std::uint32_t>(rows.size());
    rows.push_back({own, 0.0, c, static_cast<std::uint32_t>(slots.size()),
                    static_cast<std::uint32_t>(types.size())});
    // No partial sum of a member's price can overflow under this.
    double magnitude = std::abs(own);
    for (std::size_t i = 0; i < types.size(); ++i) {
      const auto [least, most] = classes.remaining(c, i);
      slots.push_back({coef[i], least, most});
      magnitude += std::abs(coef[i]) * most;
    }
    bounded = bounded && magnitude <= 1e300;
  }
  // A member's exact price from its class's terms.
  const auto price = [&](const Row& row, const MachineView& v) {
    double d = row.own;
    for (std::size_t i = 0; i < row.n; ++i)
      d += slots[row.first + i].coef * v.residents[i].remaining;
    return d;
  };
  const auto row_for = [&](std::size_t m) -> const Row& {
    return rows[row_of[classes.class_of(m)]];
  };
  ClassPick pick;
  if (classes.class_of(chosen) != IndexedHeap::kAbsent)
    pick.chosen = price(row_for(chosen), cluster.view(chosen));
  if (!bounded) {
    std::tie(pick.machine, pick.cost) = cheapest(
        cluster, who, floor, [&](std::size_t m, const MachineView& v) {
          return price(row_for(m), v);
        });
    return pick;
  }

  // F at the class bounds, with slot p's remaining work at `r`.
  const auto bound = [&](const Row& row, std::size_t p, double r) {
    double b = row.own;
    for (std::size_t i = 0; i < row.n; ++i) {
      const Term& t = slots[row.first + i];
      b += t.coef * (i == p ? r : t.coef >= 0.0 ? t.least : t.most);
    }
    return b;
  };
  std::size_t first = 0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    rows[k].bound = bound(rows[k], rows[k].n, 0.0);
    if (rows[k].bound < rows[first].bound) first = k;
  }

  pick.cost = kInf;
  const auto consider = [&](const Row& row, std::size_t m) {
    const double cost = price(row, cluster.view(m));
    if (cost < pick.cost || (cost == pick.cost && m < pick.machine)) {
      pick.cost = cost;
      pick.machine = m;
    }
  };
  // The class with the least bound first, for an early incumbent.
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Row& row = rows[k == 0 ? first : k == first ? 0 : k];
    if (row.bound > pick.cost) continue;
    // Walk the slot whose remaining work spreads the price the most.
    std::size_t p = row.n;
    double spread = -1.0;
    for (std::size_t i = 0; i < row.n; ++i) {
      const Term& t = slots[row.first + i];
      const double s = std::abs(t.coef) * (t.most - t.least);
      if (t.coef != 0.0 && s > spread) {
        spread = s;
        p = i;
      }
    }
    if (p == row.n) {
      // Every coefficient is 0: each member prices exactly A.
      consider(row, classes.lowest(row.c));
      continue;
    }
    OpenClasses::Walk walk =
        classes.walk(row.c, p, slots[row.first + p].coef > 0.0);
    std::size_t m = 0;
    double r = 0.0;
    while (walk.next(m, r) && !(bound(row, p, r) > pick.cost)) consider(row, m);
  }
  return pick;
}

/// SLO violation of admitting `job` to `machine`: for each
/// latency-critical party, the excess of its p99 slowdown over its
/// budget, weighted by the work that runs under that excess. tail(i)
/// is resident i's p99 slowdown with the job admitted; tail(n), n =
/// residents, is the job's own. Only latency-critical parties are
/// asked, so a best-effort-only decision issues no tail query.
template <class Tail>
double violation(const JobSpec& job, const MachineView& machine, Tail tail) {
  const std::size_t n = machine.residents.size();
  double viol = 0.0;
  if (job.latency_critical())
    viol += std::max(0.0, tail(n) - job.slo_p99) * job.work;
  for (std::size_t i = 0; i < n; ++i) {
    const ResidentView& r = machine.residents[i];
    if (r.slo_target <= 0.0) continue;
    viol += std::max(0.0, tail(i) - r.slo_target) * std::max(0.0, r.remaining);
  }
  return viol;
}

/// Additively composed tail slowdown of party i (as in violation())
/// once `job_type` joins `machine` -- the tail matrix's analog of
/// harness::corun_slowdown, inlined allocation-free.
double composed_tail(const harness::CorunMatrix& tail, std::size_t job_type,
                     const MachineView& machine, std::size_t i) {
  const std::size_t n = machine.residents.size();
  const std::size_t fg = i < n ? machine.residents[i].type : job_type;
  double excess = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    if (j != i) excess += tail.at(fg, machine.residents[j].type) - 1.0;
  if (i < n) excess += tail.at(fg, job_type) - 1.0;
  return std::max(1.0, 1.0 + excess);
}

}  // namespace

CostModelPolicy::CostModelPolicy(std::string name,
                                 harness::CorunMatrix estimate,
                                 harness::CorunMatrix tail)
    : estimate_(std::move(estimate)),
      tail_(std::move(tail)),
      name_(std::move(name)) {
  if (estimate_.size() == 0)
    throw std::invalid_argument{"CostModelPolicy: empty estimate matrix"};
  if (tail_.size() != 0 && tail_.size() != estimate_.size())
    throw std::invalid_argument{
        "CostModelPolicy: tail/estimate axis size mismatch"};
  reprice_floor();
}

void CostModelPolicy::reprice_floor() {
  // With every entry >= 1, placement_delta sums non-negative terms
  // (residents' remaining work is >= 0), and the violation always does.
  floor_ = 0.0;
  for (const std::vector<double>& row : estimate_.normalized)
    for (const double e : row)
      if (!(e >= 1.0)) {
        floor_ = -kInf;
        return;
      }
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
  static thread_local std::vector<std::size_t> others;
  const std::vector<ResidentView>& rs = machine.residents;
  return violation(job, machine, [&](std::size_t i) {
    // The party's co-residents: the job first, then the other
    // residents (just the residents for the job itself).
    others.clear();
    if (i < rs.size()) others.push_back(job.type);
    for (std::size_t j = 0; j < rs.size(); ++j)
      if (j != i) others.push_back(rs[j].type);
    return truth.tail_slowdown(i < rs.size() ? rs[i].type : job.type, others);
  });
}

TruthPrices truth_prices(harness::InterferenceTruth& truth, const JobSpec& job,
                         const ClusterView& cluster, const OpenClasses* classes,
                         std::size_t chosen, bool lc, const std::string& who) {
  TruthPrices p;
  if (classes != nullptr && !lc)
    if (const auto pick = cheapest_by_class(
            *classes, cluster, who, -kInf, chosen,
            [&](const std::vector<std::size_t>& types, std::size_t members,
                std::vector<double>& coef) {
              const std::uint64_t before = truth.fallbacks();
              const double own =
                  truth.admission_terms(job.type, job.work, types, coef);
              // A scan would have asked once per member.
              truth.count_fallbacks((truth.fallbacks() - before) *
                                    (members - 1));
              return own;
            })) {
      p.machine = pick->machine;
      p.least = pick->cost;
      p.chosen = pick->chosen;
      return p;
    }
  p.least = kInf;
  if (lc) p.lc_least = kInf;
  p.machine = cheapest(cluster, who, -kInf,
                       [&](std::size_t m, const MachineView& v) {
                         const double d =
                             placement_delta(truth, job.type, job.work, v);
                         if (m == chosen) p.chosen = d;
                         p.least = std::min(p.least, d);
                         if (lc) {
                           const double lv = slo_violation(truth, job, v);
                           if (m == chosen) p.lc_chosen = lv;
                           p.lc_least = std::min(p.lc_least, lv);
                         }
                         return d;
                       })
                  .first;
  return p;
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
  const TruthPrices p =
      truth_prices(truth_, job, cluster, cluster.open_classes(),
                   /*chosen=*/SIZE_MAX, /*lc=*/false, name_);
  last_delta_ = p.least;
  return p.machine;
}

std::size_t CostModelPolicy::place(const JobSpec& job,
                                   const ClusterView& cluster) {
  if (job.type >= estimate_.size())
    throw std::out_of_range{"CostModelPolicy::place: job type outside matrix"};
  if (tail_.size() == 0) {
    if (const OpenClasses* classes = cluster.open_classes())
      if (const auto pick = cheapest_by_class(
              *classes, cluster, name_, floor_, SIZE_MAX,
              [&](const std::vector<std::size_t>& types, std::size_t,
                  std::vector<double>& coef) {
                return harness::admission_terms(estimate_, job.type, job.work,
                                                types, coef);
              })) {
        last_delta_ = pick->cost;
        return pick->machine;
      }
    const auto [m, delta] = cheapest(
        cluster, name_, floor_, [&](std::size_t, const MachineView& v) {
          return placement_delta(estimate_, job.type, job.work, v);
        });
    last_delta_ = delta;
    return m;
  }
  // SLO-aware: (predicted violation, throughput delta), lexicographic.
  const auto [m, score] =
      cheapest(cluster, name_, std::pair{floor_, floor_},
               [&](std::size_t, const MachineView& v) {
                 const double viol = violation(job, v, [&](std::size_t i) {
                   return composed_tail(tail_, job.type, v, i);
                 });
                 return std::pair{
                     viol, placement_delta(estimate_, job.type, job.work, v)};
               });
  last_delta_ = score.second;
  if (score.first > 0.0) ++forced_;
  return m;
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
  reprice_floor();
  estimate_stale_ = false;
}

}  // namespace coperf::cluster
