#include "workloads.hpp"

#include <filesystem>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "cluster/cluster.hpp"
#include "harness/grouptruth.hpp"
#include "harness/plan.hpp"
#include "harness/runcache.hpp"
#include "predict/predicted_matrix.hpp"
#include "probes.hpp"
#include "wl/registry.hpp"
#include "wrappers.hpp"

namespace perfbench {
namespace {

namespace cl = coperf::cluster;
namespace hs = coperf::harness;

/// Trials re-run one at a time in the traced run for trial_ms.
constexpr std::size_t kSerialSample = 24;

/// Every workload starts cold: the memory layer on and empty, the disk
/// layer parked whatever COPERF_RUN_CACHE_DIR says.
hs::RunCache& cold_cache() {
  hs::RunCache& cache = hs::RunCache::instance();
  cache.set_enabled(true);
  cache.set_disk_dir("");
  cache.clear();
  cache.reset_stats();
  return cache;
}

void fold(Digest& d, const coperf::sim::CoreStats& s) {
  d.u64(s.cycles).u64(s.instructions).u64(s.loads).u64(s.stores)
      .u64(s.l1d_hits).u64(s.l1d_misses).u64(s.l2_hits).u64(s.l2_misses)
      .u64(s.l3_hits).u64(s.l3_misses).u64(s.bytes_from_mem)
      .u64(s.bytes_written_back).u64(s.stall_cycles_mem)
      .u64(s.pending_l2_cycles).u64(s.barrier_wait_cycles)
      .u64(s.prefetches_issued);
}

/// Completion timestamps of a plan execution, taken in its Progress
/// callback (which runs on the lane that finished the trial).
class Timeline {
 public:
  explicit Timeline(double t0) : t0_(t0) {}

  hs::ExperimentPlan::Progress callback() {
    return [this](std::size_t, std::size_t, const hs::Trial& t) {
      const std::lock_guard lock{mu_};
      done_.push_back({now_s(), std::this_thread::get_id()});
      trials_.push_back(t);
    };
  }

  const std::vector<hs::Trial>& trials() const { return trials_; }

  /// harness.* from the benchmark's own timestamps. With work stealing
  /// a lane is busy from the start until its last completion, so the
  /// busy lane-time is the sum over lanes of (last completion - start).
  void report(double end, unsigned lanes, Ledger& out) const {
    std::map<std::thread::id, double> last;
    std::vector<double> times;
    for (const auto& [t, lane] : done_) {
      last[lane] = std::max(last[lane], t);
      times.push_back(t);
    }
    double busy = 0.0;
    for (const auto& [lane, t] : last) busy += t - t0_;
    std::sort(times.begin(), times.end());
    const double wall = end - t0_;
    out.set("harness.lanes", lanes, "count");
    out.set("harness.lane_utilization",
            wall > 0.0 ? busy / (wall * lanes) : 0.0, "ratio");
    double drain = 0.0;
    if (times.size() > lanes)
      drain = times.back() - times[times.size() - 1 - lanes];
    out.set("harness.drain_s", drain, "s");
  }

 private:
  double t0_;
  std::mutex mu_;
  std::vector<std::pair<double, std::thread::id>> done_;
  std::vector<hs::Trial> trials_;
};

/// Re-runs an evenly spaced sample of `trials` one at a time with the
/// cache off; harness.trial_ms quantiles come from these samples.
void serial_trials(const std::vector<hs::Trial>& trials, Ledger& out) {
  hs::RunCache& cache = hs::RunCache::instance();
  cache.set_enabled(false);
  std::vector<double> ms;
  const std::size_t n = std::min(kSerialSample, trials.size());
  for (std::size_t k = 0; k < n; ++k) {
    const hs::Trial& t = trials[k * trials.size() / n];
    const double t0 = now_s();
    (void)hs::run_group(t.group, t.opt);
    ms.push_back((now_s() - t0) * 1e3);
  }
  cache.set_enabled(true);
  const Quantile p50 = quantile(ms, 0.5), p85 = quantile(ms, 0.85);
  out.set("harness.trial_ms.p50", p50.value, "ms");
  out.set("harness.trial_ms.p85", p85.value, "ms");
  out.set("harness.trial_ms.n", static_cast<double>(p50.n), "count");
}

double simulated_mcycles(const hs::GroupResult& g) {
  double c = 0.0;
  for (const hs::RunResult& m : g.members) c += static_cast<double>(m.stats.cycles);
  return c / 1e6;
}

// --- cluster tallies --------------------------------------------------

/// What the wrappers saw over every simulate() call of one execution.
struct ClusterTally {
  std::map<std::string, PolicyTimes> policies;
  TruthTimes truth;
  double simulate_s = 0.0;
  /// ClusterResult counts summed over the calls.
  std::uint64_t billed = 0, migrations = 0, fault_kills = 0, shed = 0,
                completed = 0;

  /// Runs simulate() through the wrappers, or directly when untraced.
  cl::ClusterResult simulate(bool traced, const cl::ClusterConfig& cfg,
                             coperf::harness::InterferenceTruth& truth_in,
                             const std::vector<cl::JobSpec>& trace,
                             cl::PlacementPolicy& policy) {
    if (!traced) return cl::simulate(cfg, truth_in, trace, policy);
    PolicyTimes& pt = policies[policy.name()];
    TimedPolicy tp{policy, pt};
    TimedTruth tt{truth_in, truth};
    const double t0 = now_s();
    cl::ClusterResult r = cl::simulate(cfg, tt, trace, tp);
    simulate_s += now_s() - t0;
    billed += r.billed_decisions;
    migrations += r.migrations;
    fault_kills += r.fault_kills;
    shed += r.shed_jobs;
    completed += r.completed_jobs;
    return r;
  }

  void report(Ledger& out) const {
    double place_s = 0.0, observe_s = 0.0;
    std::uint64_t views = 0, calls = 0;
    for (const auto& [name, pt] : policies) {
      place_s += pt.place_s;
      observe_s += pt.observe_s;
      views += pt.views;
      calls += pt.decision_ns.size();
    }
    for (const char* name : {"random", "oracle"}) {
      const auto it = policies.find(name);
      if (it == policies.end()) continue;
      const std::vector<double>& ns = it->second.decision_ns;
      const std::string key = std::string("cluster.decision_ns.") + name;
      const Quantile p50 = quantile(ns, 0.5);
      out.set(key + ".p50", p50.value, "ns");
      out.set(key + ".p999", quantile(ns, 0.999).value, "ns");
      out.set(key + ".n", static_cast<double>(p50.n), "count");
    }
    out.set("cluster.candidates_per_decision",
            calls == 0 ? 0.0 : static_cast<double>(views) / calls, "ratio");
    out.set("cluster.truth_queries", static_cast<double>(truth.queries), "count");
    out.set("cluster.truth_s", truth.truth_s, "s");
    out.set("cluster.place_s", place_s, "s");
    out.set("cluster.simulate_s", simulate_s, "s");
    out.set("cluster.loop_s", simulate_s - place_s - observe_s - truth.truth_s,
            "s");
    out.set("cluster.billed_decisions", static_cast<double>(billed), "count");
    out.set("cluster.migrations", static_cast<double>(migrations), "count");
    out.set("cluster.fault_kills", static_cast<double>(fault_kills), "count");
    out.set("cluster.shed_jobs", static_cast<double>(shed), "count");
    out.set("cluster.completed_jobs", static_cast<double>(completed), "count");
  }
};

/// Digest of a simulate() call: its audit log's fixed-precision text,
/// the form the project keeps byte-identical.
void fold_log(Digest& d, const cl::ClusterResult& r,
              const std::vector<std::string>& names) {
  DigestBuf buf;
  std::ostream os{&buf};
  r.log.write(os, names);
  os.flush();
  d.u64(buf.digest().value());
}

/// Arrivals that neither completed nor were shed by admission control.
std::uint64_t lost_jobs(const cl::ClusterResult& r) {
  std::uint64_t lost = 0;
  for (const cl::JobOutcome& o : r.outcomes) lost += !o.completed() && !o.shed;
  return lost;
}

/// Deterministic 8-type co-run matrix with hog/victim structure (type
/// b's aggression and type f's sensitivity rise with the index): pairs
/// span harmonious (1.0x) to destructive (~1.9x).
hs::CorunMatrix fleet_matrix() {
  constexpr std::size_t kTypes = 8;
  hs::CorunMatrix m;
  for (std::size_t i = 0; i < kTypes; ++i) {
    m.workloads.push_back(std::string(1, 't').append(std::to_string(i)));
    m.solo_cycles.push_back(1'000'000);
  }
  m.normalized.assign(kTypes, std::vector<double>(kTypes, 1.0));
  const double den = static_cast<double>(kTypes - 1);
  for (std::size_t f = 0; f < kTypes; ++f)
    for (std::size_t b = 0; b < kTypes; ++b)
      m.normalized[f][b] = 1.0 + 1.1 * (0.2 + 0.8 * f / den) * (b / den);
  return m;
}

// --- matrix_small -----------------------------------------------------

class MatrixSmall final : public Workload {
 public:
  explicit MatrixSmall(const Options& o) : o_(o) {}

  void setup() override { first_ms_ = create_models_once(o_.input); }
  std::map<std::string, double> model_setup_ms() const override {
    return first_ms_;
  }

  Iteration run(Ledger* layers) override {
    hs::RunCache& cache = cold_cache();
    hs::RunOptions ro;
    ro.seed = o_.input;
    const hs::MatrixSpec spec{tracked_workloads(), 1, {}};
    const double t0 = now_s();
    Timeline tl{t0};
    hs::ExperimentPlan plan{ro};
    plan.add_matrix(spec);
    const hs::ResultSet rs = plan.execute(
        o_.lanes, layers ? tl.callback() : hs::ExperimentPlan::Progress{});
    const hs::CorunMatrix mx = rs.matrix(spec);
    Iteration it;
    it.wall_s = now_s() - t0;
    const hs::RunCache::Stats cold = cache.stats();

    Digest d;
    for (std::size_t f = 0; f < mx.size(); ++f) {
      d.u64(mx.solo_cycles[f]);
      for (double v : mx.normalized[f]) d.f64(v);
    }
    double mcycles = 0.0;
    for (const hs::Trial& t : plan.trials()) {
      const hs::GroupResult& g = rs.at(t.key);
      d.str(t.key).u64(g.finish_cycle);
      for (const hs::RunResult& m : g.members) fold(d, m.stats);
      for (std::uint64_t r : g.runs_completed) d.u64(r);
      it.failed += g.hit_cycle_limit;
      mcycles += simulated_mcycles(g);
    }
    it.attempted = plan.trial_count();
    it.digest = d.hex();
    if (layers == nullptr) return it;

    Ledger& out = *layers;
    tl.report(t0 + it.wall_s, o_.lanes, out);
    out.set("harness.trials", static_cast<double>(plan.trial_count()), "count");
    out.set("harness.simulated", static_cast<double>(cold.misses), "count");
    out.set("sim.corun_mcycles_per_s", mcycles / it.wall_s, "Mcycles/s");
    // Plan overhead alone: the same plan again, every trial a memory hit.
    cache.reset_stats();
    const double w0 = now_s();
    hs::ExperimentPlan warm{ro};
    warm.add_matrix(spec);
    (void)warm.execute(o_.lanes).matrix(spec);
    out.set("harness.plan_ms", (now_s() - w0) * 1e3, "ms");
    out.set("harness.cache_hits", static_cast<double>(cache.stats().hits),
            "count");
    serial_trials(tl.trials(), out);
    return it;
  }

 private:
  Options o_;
  std::map<std::string, double> first_ms_;
};

// --- truth_tiny3 ------------------------------------------------------

class TruthTiny3 final : public Workload {
 public:
  /// `slots` residents per machine: the measured arity and the sweep's
  /// machine size.
  TruthTiny3(const Options& o, unsigned slots) : o_(o), slots_(slots) {
    cfg_.workloads = tracked_workloads();
    cfg_.opt.size = coperf::wl::SizeClass::Tiny;
    cfg_.opt.seed = o_.input;
    cfg_.max_arity = slots_;
    cfg_.member_threads = cfg_.opt.machine.num_cores / slots_;
    cfg_.host_threads = o_.lanes;
  }

  void setup() override {
    const auto& reg = coperf::wl::Registry::instance();
    for (const std::string& w : cfg_.workloads)
      (void)reg.create(w, coperf::wl::AppParams{0, cfg_.member_threads,
                                                cfg_.opt.size, o_.input});
  }

  Iteration run(Ledger* layers) override {
    hs::RunCache& cache = cold_cache();
    const std::filesystem::path dir =
        std::filesystem::path(o_.tmpdir) / ("truth-" + std::to_string(++runs_));
    std::filesystem::create_directories(dir);
    cache.set_disk_dir(dir.string());

    const double t0 = now_s();
    Timeline tl{t0};
    hs::GroupTruth truth{cfg_};
    const auto ps = truth.prefetch_all(
        slots_, layers ? tl.callback() : hs::ExperimentPlan::Progress{});
    const double t1 = now_s();
    const hs::RunCache::Stats cold = cache.stats();
    // Warm rebuild: memory layer dropped, every trial served from disk.
    cache.clear();
    cache.reset_stats();
    hs::GroupTruth warm{cfg_};
    (void)warm.prefetch_all(slots_);
    const double t2 = now_s();
    const hs::RunCache::Stats disk = cache.stats();
    ClusterTally tally;
    double fit_s = 0.0;
    const std::vector<double> regret = sweep(truth, layers != nullptr, tally, fit_s);
    Iteration it;
    it.wall_s = now_s() - t0;
    cache.set_disk_dir("");
    std::filesystem::remove_all(dir);

    const std::vector<hs::GroupObservation> obs = truth.observations();
    const std::vector<hs::GroupObservation> warm_obs = warm.observations();
    bool same = obs.size() == warm_obs.size() && disk.misses == 0;
    Digest d;
    for (std::size_t i = 0; i < obs.size(); ++i) {
      const hs::GroupObservation& o = obs[i];
      d.u64(o.type).f64(o.slowdown).f64(o.tail_slowdown);
      for (std::size_t x : o.others) d.u64(x);
      d.u64(~0ull);
      same = same && o.slowdown == warm_obs[i].slowdown &&
             o.others == warm_obs[i].others;
    }
    for (double r : regret) d.f64(r);
    it.attempted = ps.trials;
    // A truncated trial or a warm rebuild that disagrees with the cold
    // one fails the whole truth; so does a nonzero oracle regret.
    const bool ok = same && truth.truncated_trials() == 0 && regret.back() <= 1e-9;
    it.failed = ok ? 0 : it.attempted;
    it.digest = d.hex();
    if (layers == nullptr) return it;

    Ledger& out = *layers;
    tl.report(t1, o_.lanes, out);
    out.set("harness.trials", static_cast<double>(ps.trials), "count");
    out.set("harness.simulated", static_cast<double>(cold.misses), "count");
    double mcycles = 0.0;
    for (const hs::Trial& t : tl.trials()) {
      // Served from memory: only the cycle counts are read here.
      hs::GroupResult g;
      if (cache.lookup(t.key, &g)) mcycles += simulated_mcycles(g);
    }
    out.set("sim.corun_mcycles_per_s", mcycles / (t1 - t0), "Mcycles/s");
    out.set("grouptruth.cold_s", t1 - t0, "s");
    out.set("grouptruth.warm_ms", (t2 - t1) * 1e3, "ms");
    out.set("runcache.disk_hits", static_cast<double>(disk.disk_hits), "count");
    // Plan overhead alone: a third build with every trial a memory hit.
    cache.reset_stats();
    const double w0 = now_s();
    hs::GroupTruth again{cfg_};
    (void)again.prefetch_all(slots_);
    out.set("harness.plan_ms", (now_s() - w0) * 1e3, "ms");
    out.set("harness.cache_hits", static_cast<double>(cache.stats().hits),
            "count");
    serial_trials(tl.trials(), out);
    out.set("predict.fit_ms", fit_s * 1e3, "ms");
    std::vector<double> observe_us;
    for (const char* name : {"online-lstsq", "online-knn"}) {
      const auto& v = tally.policies.at(name).observe_us;
      observe_us.insert(observe_us.end(), v.begin(), v.end());
    }
    const Quantile obs50 = quantile(observe_us, 0.5);
    out.set("predict.observe_us.p50", obs50.value, "us");
    out.set("predict.observe_us.n", static_cast<double>(obs50.n), "count");
    out.set("predict.online_regret", regret[2], "regret");
    tally.report(out);
    return it;
  }

 private:
  static constexpr unsigned kMachines = 4;
  static constexpr unsigned kTraces = 3;

  /// The five-policy regret sweep of bench/cluster_regret over kTraces
  /// arrival traces: mean billed regret per policy, in the order random,
  /// static-analytic, online-lstsq, online-knn, oracle.
  std::vector<double> sweep(hs::GroupTruth& truth, bool traced,
                            ClusterTally& tally, double& fit_s) {
    namespace pr = coperf::predict;
    const double f0 = now_s();
    std::vector<pr::WorkloadSignature> sigs;
    for (std::size_t i = 0; i < truth.size(); ++i)
      sigs.push_back(pr::WorkloadSignature::from(truth.solo(i), cfg_.opt.machine));
    const pr::BandwidthContentionModel analytic;
    const hs::CorunMatrix predicted = pr::predicted_matrix(sigs, analytic);
    const auto pairs = pr::training_pairs(predicted, sigs);
    fit_s += now_s() - f0;

    cl::ClusterConfig cfg;
    cfg.machines = kMachines;
    cfg.slots = slots_;
    cfg.type_names = cfg_.workloads;
    cl::TraceOptions topt;
    topt.jobs = 1000;
    topt.mean_interarrival = topt.mean_work / (0.8 * kMachines * slots_);
    std::vector<double> regret(5, 0.0);
    for (unsigned k = 0; k < kTraces; ++k) {
      topt.seed = (o_.input - 1) * kTraces + k + 1;
      const auto trace = cl::synthetic_trace(truth.size(), topt);
      const double t0 = now_s();
      auto lstsq = std::make_unique<pr::LeastSquaresModel>();
      lstsq->train(pairs);
      auto knn = std::make_unique<pr::KnnModel>();
      knn->train(pairs);
      fit_s += now_s() - t0;
      cl::RandomPolicy random{topt.seed};
      cl::CostModelPolicy statics{"static-analytic", predicted};
      cl::OnlineRefinedPolicy online_lstsq{"online-lstsq", std::move(lstsq), sigs};
      cl::OnlineRefinedPolicy online_knn{"online-knn", std::move(knn), sigs};
      cl::GroupTruthPolicy oracle{"oracle", truth};
      cl::PlacementPolicy* policies[] = {&random, &statics, &online_lstsq,
                                         &online_knn, &oracle};
      for (std::size_t p = 0; p < regret.size(); ++p) {
        const cl::ClusterResult r =
            tally.simulate(traced, cfg, truth, trace, *policies[p]);
        regret[p] += r.mean_decision_regret / kTraces;
      }
    }
    return regret;
  }

  Options o_;
  unsigned slots_;
  hs::GroupTruth::Config cfg_;
  unsigned runs_ = 0;
};

// --- fleet_10k and fleet_churn ----------------------------------------

class Fleet final : public Workload {
 public:
  /// `churn`: ~135% load with faults, admission shedding and migration
  /// (oracle only); otherwise ~80% load, random then oracle.
  Fleet(const Options& o, bool churn, std::size_t machines, std::size_t jobs)
      : o_(o), churn_(churn), machines_(machines), jobs_(jobs),
        truth_(fleet_matrix()) {}

  void setup() override {
    const double t0 = now_s();
    cl::FleetTraceOptions topt;
    topt.jobs = jobs_;
    topt.seed = o_.input;
    topt.arrivals = cl::ArrivalModel::Bursty;
    topt.work = cl::WorkModel::Pareto;
    topt.class_shares = {0.75, 0.2, 0.05};
    const std::size_t machines = machines_;
    const double load = churn_ ? 1.35 : 0.8;
    topt.mean_interarrival = topt.mean_work / (load * machines * kSlots);
    trace_ = cl::fleet_trace(truth_.size(), topt);

    cfg_.machines = machines;
    cfg_.slots = kSlots;
    cfg_.regret_sample = churn_ ? 1 : 1000;
    if (churn_) {
      // ~3 outages per machine over the arrival span, 5% repair time.
      cl::FaultScheduleOptions fopt;
      fopt.seed = o_.input;
      fopt.horizon = trace_.back().arrival;
      fopt.mtbf = fopt.horizon / 3.0;
      fopt.mttr = fopt.mtbf / 20.0;
      cfg_.faults = cl::fault_schedule(machines, fopt);
    }
    trace_gen_s_ = now_s() - t0;
  }

  Iteration run(Ledger* layers) override {
    const bool traced = layers != nullptr;
    // The audit-log text is digested on the first execution only; later
    // ones must reproduce its exact event fields.
    const bool first = log_digest_.empty();
    ClusterTally tally;
    Digest text, raw;
    Iteration it;
    double wall = 0.0;
    const auto run_one = [&](const cl::ClusterConfig& cfg,
                             cl::PlacementPolicy& policy) {
      const double t0 = now_s();
      const cl::ClusterResult r = tally.simulate(traced, cfg, truth_, trace_, policy);
      wall += now_s() - t0;
      for (const cl::TraceEvent& e : r.log.events)
        raw.u64(static_cast<std::uint64_t>(e.kind)).f64(e.time).u64(e.job)
            .u64(e.type).u64(e.machine).f64(e.value);
      if (first) fold_log(text, r, truth_.pairwise().workloads);
      it.attempted += trace_.size();
      it.failed += lost_jobs(r);
      if (!churn_) it.failed += r.shed_jobs;
      return r;
    };

    cl::ClusterResult last;
    if (churn_) {
      cl::ClusterConfig prot = cfg_;
      prot.migration.preempt = true;
      prot.admission.queue_limit = cfg_.machines;
      prot.admission.shed_below = 1;  // only the best-effort class
      cl::CostModelPolicy oracle{"oracle", truth_.pairwise()};
      last = run_one(prot, oracle);
    } else {
      cl::RandomPolicy random{o_.input};
      cl::CostModelPolicy oracle{"oracle", truth_.pairwise()};
      (void)run_one(cfg_, random);
      last = run_one(cfg_, oracle);
    }
    it.wall_s = wall;
    if (first) {
      log_digest_ = text.hex();
      fields_digest_ = raw.hex();
    }
    it.digest = raw.hex() == fields_digest_ ? log_digest_ : raw.hex();
    if (!traced) return it;
    tally.report(*layers);
    layers->set("cluster.trace_gen_s", trace_gen_s_, "s");
    layers->set("cluster.hp_goodput",
                last.class_stats.empty() ? 0.0 : last.class_stats.back().goodput,
                "work/t");
    if (churn_) attribute(*layers);
    return it;
  }

 private:
  static constexpr unsigned kSlots = 2;

  /// Runs the same trace unprotected (faults and retries only) through
  /// the wrappers and sets, per part of simulate(), how much longer the
  /// protected run (already in `out`) took.
  void attribute(Ledger& out) {
    ClusterTally t;
    cl::CostModelPolicy oracle{"oracle", truth_.pairwise()};
    (void)t.simulate(true, cfg_, truth_, trace_, oracle);
    Ledger base;
    t.report(base);
    for (const char* k : {"cluster.simulate_s", "cluster.loop_s",
                          "cluster.place_s", "cluster.truth_s"})
      out.set(std::string(k) + ".over_unprotected", out.get(k) - base.get(k), "s");
  }

  Options o_;
  bool churn_;
  std::size_t machines_, jobs_;
  coperf::harness::MatrixTruth truth_;
  std::vector<cl::JobSpec> trace_;
  cl::ClusterConfig cfg_;
  double trace_gen_s_ = 0.0;
  std::string log_digest_, fields_digest_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opt) {
  if (name == "matrix_small") return std::make_unique<MatrixSmall>(opt);
  if (name == "truth_tiny3") return std::make_unique<TruthTiny3>(opt, 3);
  if (name == "fleet_10k")
    return std::make_unique<Fleet>(opt, false, 10'000, 1'000'000);
  if (name == "fleet_churn")
    return std::make_unique<Fleet>(opt, true, 2'000, 500'000);
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

std::vector<std::unique_ptr<Workload>> make_layer_probes(const Options& opt) {
  std::vector<std::unique_ptr<Workload>> probes;
  probes.push_back(std::make_unique<TruthTiny3>(opt, 2));
  probes.push_back(std::make_unique<Fleet>(opt, false, 1'000, 100'000));
  probes.push_back(std::make_unique<Fleet>(opt, true, 256, 80'000));
  return probes;
}

}  // namespace perfbench
