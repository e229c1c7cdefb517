// Fleet-scale scheduler throughput: how fast the indexed cluster
// engine makes placement decisions at datacenter size, and what regret
// sampling costs in fidelity.
//
// Unlike cluster_regret (which measures a real GroupTruth and sweeps
// policy quality at 4x3), this bench is about the *event loop itself*:
// a synthetic 8-type co-run matrix drives a ladder of fleet scales --
// 1k to 10k machines, 100k to 1M arrivals from the fleet trace
// generators (bursty arrivals, Pareto work by default) -- and reports
// decisions/sec, wall time, and the sampled decision regret per rung,
// for both a policy that prices no candidate (random, one rank select
// per decision) and the cost-model argmin over the open machines
// (oracle over the same matrix, so its regret is ~0 and any drift is
// engine error).
//
//   --quick           first rung only (1000 machines x 100k arrivals)
//   --machines=N      single rung at N machines (with --jobs)
//   --jobs=N          single rung at N arrivals (with --machines)
//   --slots=N         co-run slots per machine (default 2)
//   --regret-sample=N bill ground-truth regret every Nth decision
//                     (default 1000; 0 = never)
//   --arrivals=M      poisson | diurnal | bursty   (default bursty)
//   --work=M          uniform | pareto             (default pareto)
//   --faults          append the graceful-degradation ladder: overload
//                     (~135% of slot capacity) plus machine churn, a
//                     no-shed baseline vs admission control + preemptive
//                     migration, compared on per-class goodput and
//                     regret (quick = first rung only)
//   --trace=FILE      Chrome trace of the run (machine lanes are
//                     emitted per simulated machine: use small rungs)
//
// Each wall time (wall_s, decisions_per_s) is the median of kRuns
// runs of the same config with a fresh policy, since single runs of a
// rung spread by up to +-40%. Every other field is deterministic and
// comes from the last run.
//
// --json appends machine-readable output and persists it as
// BENCH_fleet_throughput.json at the repo root (the perf-CI snapshot),
// including the fault ladder's per-class breakdown when --faults is on.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "harness/report.hpp"

namespace {

/// Deterministic 8-type co-run matrix with hog/victim structure: type
/// b's aggression and type f's sensitivity rise with the index, so the
/// matrix spans harmonious (1.0x) to destructive (~1.9x) pairs.
coperf::harness::CorunMatrix synthetic_fleet_truth(std::size_t n_types) {
  coperf::harness::CorunMatrix m;
  for (std::size_t i = 0; i < n_types; ++i) {
    m.workloads.push_back("t" + std::to_string(i));
    m.solo_cycles.push_back(1'000'000);
  }
  m.normalized.assign(n_types, std::vector<double>(n_types, 1.0));
  const double den = static_cast<double>(n_types - 1);
  for (std::size_t f = 0; f < n_types; ++f)
    for (std::size_t b = 0; b < n_types; ++b) {
      const double sensitivity = 0.2 + 0.8 * static_cast<double>(f) / den;
      const double aggression = static_cast<double>(b) / den;
      m.normalized[f][b] = 1.0 + 1.1 * sensitivity * aggression;
    }
  return m;
}

struct Rung {
  std::size_t machines;
  std::size_t jobs;
};

constexpr std::size_t kRuns = 5;

/// A config's result and its median wall time over kRuns runs, each
/// with a fresh policy (a policy's RNG and counters carry over).
struct Timed {
  coperf::cluster::ClusterResult res;
  std::string policy;
  double wall_s = 0.0;
};

Timed run_timed(const coperf::cluster::ClusterConfig& cfg,
                coperf::harness::InterferenceTruth& truth,
                const std::vector<coperf::cluster::JobSpec>& trace,
                const coperf::harness::CorunMatrix& estimate, bool oracle) {
  using Clock = std::chrono::steady_clock;
  Timed out;
  std::vector<double> walls;
  for (std::size_t k = 0; k < kRuns; ++k) {
    std::unique_ptr<coperf::cluster::PlacementPolicy> policy;
    if (oracle)
      policy = std::make_unique<coperf::cluster::CostModelPolicy>("oracle",
                                                                  estimate);
    else
      policy = std::make_unique<coperf::cluster::RandomPolicy>(7);
    const auto t0 = Clock::now();
    out.res = coperf::cluster::simulate(cfg, truth, trace, *policy);
    walls.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    out.policy = policy->name();
  }
  std::nth_element(walls.begin(), walls.begin() + kRuns / 2, walls.end());
  out.wall_s = walls[kRuns / 2];
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace coperf;

  unsigned machines = 0, jobs = 0, slots = 2, regret_sample = 1000;
  bool faults = false;
  cluster::ArrivalModel arrivals = cluster::ArrivalModel::Bursty;
  cluster::WorkModel work = cluster::WorkModel::Pareto;
  const auto extra = [&](const std::string& arg) {
    if (arg == "--faults") {
      faults = true;
      return true;
    }
    if (arg.rfind("--machines=", 0) == 0) {
      machines = bench::parse_unsigned("--machines", arg.substr(11));
      return true;
    }
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = bench::parse_unsigned("--jobs", arg.substr(7));
      return true;
    }
    if (arg.rfind("--slots=", 0) == 0) {
      slots = bench::parse_unsigned("--slots", arg.substr(8));
      return true;
    }
    if (arg.rfind("--regret-sample=", 0) == 0) {
      regret_sample = bench::parse_unsigned("--regret-sample", arg.substr(16));
      return true;
    }
    if (arg.rfind("--arrivals=", 0) == 0) {
      const std::string v = arg.substr(11);
      if (v == "poisson") arrivals = cluster::ArrivalModel::Poisson;
      else if (v == "diurnal") arrivals = cluster::ArrivalModel::Diurnal;
      else if (v == "bursty") arrivals = cluster::ArrivalModel::Bursty;
      else {
        std::cerr << "--arrivals wants poisson|diurnal|bursty\n";
        std::exit(2);
      }
      return true;
    }
    if (arg.rfind("--work=", 0) == 0) {
      const std::string v = arg.substr(7);
      if (v == "uniform") work = cluster::WorkModel::Uniform;
      else if (v == "pareto") work = cluster::WorkModel::Pareto;
      else {
        std::cerr << "--work wants uniform|pareto\n";
        std::exit(2);
      }
      return true;
    }
    return false;
  };
  const auto args = bench::parse_args(
      argc, argv, bench::kCsv | bench::kJson, extra,
      "--machines=N --jobs=N --slots=N --regret-sample=N "
      "--arrivals=poisson|diurnal|bursty --work=uniform|pareto --faults");
  bench::print_config(args, "fleet-scale cluster engine throughput "
                            "(decisions/sec on the indexed event loop)");
  if ((machines == 0) != (jobs == 0)) {
    std::cerr << "--machines and --jobs go together (one rung)\n";
    return 2;
  }
  if (slots < 2) {
    std::cerr << "need --slots >= 2\n";
    return 2;
  }

  std::vector<Rung> ladder;
  if (machines != 0) {
    ladder.push_back({machines, jobs});
  } else {
    ladder = {{1'000, 100'000},
              {2'000, 250'000},
              {4'000, 500'000},
              {10'000, 1'000'000}};
    if (args.quick) ladder.resize(1);
  }

  const harness::CorunMatrix truth = synthetic_fleet_truth(8);
  harness::MatrixTruth additive{truth};
  // A rung's arrival trace, offered at `load` x the fleet's slot capacity.
  const auto rung_trace = [&](const Rung& rung, double load) {
    cluster::FleetTraceOptions topt;
    topt.jobs = rung.jobs;
    topt.seed = 1;
    topt.arrivals = arrivals;
    topt.work = work;
    topt.class_shares = {0.75, 0.2, 0.05};
    topt.mean_interarrival =
        topt.mean_work / (load * static_cast<double>(rung.machines) * slots);
    return cluster::fleet_trace(truth.size(), topt);
  };

  harness::Table table{{"machines", "jobs", "policy", "wall s",
                        "decisions/s", "mean stretch", "regret (sampled)",
                        "billed"}};
  json::Value rung_rows = json::array();
  for (const Rung& rung : ladder) {
    const auto trace = rung_trace(rung, 0.8);  // ~80% slot utilization

    cluster::ClusterConfig cfg;
    cfg.machines = rung.machines;
    cfg.slots = slots;
    cfg.regret_sample = regret_sample;

    for (const bool oracle : {false, true}) {
      const Timed run = run_timed(cfg, additive, trace, truth, oracle);
      const cluster::ClusterResult& res = run.res;
      const double wall = run.wall_s;
      const double dps = static_cast<double>(rung.jobs) / wall;
      table.add_row({std::to_string(rung.machines), std::to_string(rung.jobs),
                     run.policy, harness::Table::fmt(wall, 3),
                     harness::Table::fmt(dps, 0),
                     harness::Table::fmt(res.mean_stretch, 3),
                     harness::Table::fmt(res.mean_decision_regret, 4),
                     std::to_string(res.billed_decisions)});
      rung_rows.items.push_back(json::object(
          {{"machines", json::integer(rung.machines)},
           {"jobs", json::integer(rung.jobs)},
           {"policy", json::str(run.policy)},
           {"wall_s", json::real(wall)},
           {"decisions_per_s", json::real(dps)},
           {"mean_stretch", json::real(res.mean_stretch)},
           {"decision_regret", json::real(res.mean_decision_regret)},
           {"billed_decisions", json::integer(res.billed_decisions)},
           {"makespan", json::real(res.makespan)}}));
      std::cout << "  " << rung.machines << " machines x " << rung.jobs
                << " jobs, " << run.policy << ": "
                << harness::Table::fmt(dps / 1e6, 2) << "M decisions/s ("
                << harness::Table::fmt(wall, 2) << " s)\n";
    }
  }
  std::cout << "\n";

  // --- graceful-degradation ladder (--faults) ------------------------
  //
  // Overload (~135% of slot capacity) plus seed-deterministic machine
  // churn, each rung simulated twice per policy: a no-shed baseline
  // (faults + retries only) and a protected config (admission control
  // sheds the best-effort class, preemptive migration clears slots for
  // the priority lanes). The headline comparison is the top class:
  // protection must buy it goodput and shed its queueing regret --
  // mean (start - arrival) / work over completed jobs, the
  // solo-normalized placement delay against the clairvoyant ideal of
  // instant placement. (Billed decision regret collapses toward zero
  // for everyone once overload leaves a single open machine per
  // placement, so it cannot separate the configs; stretch folds in
  // co-run slowdown noise from whatever neighbours the matrix deals.)
  json::Value fault_rows = json::array();
  if (faults) {
    std::vector<Rung> fault_ladder = {{64, 20'000},
                                      {128, 40'000},
                                      {256, 80'000}};
    if (machines != 0) fault_ladder = {{machines, jobs}};
    else if (args.quick) fault_ladder.resize(1);

    std::cout << "== fault ladder: overload + machine churn ==\n";
    harness::Table ftable{{"machines", "jobs", "policy", "config",
                           "failures", "migrations", "shed", "hp goodput",
                           "hp stretch", "hp queue regret"}};
    for (const Rung& rung : fault_ladder) {
      // ~135% of slot capacity: without shedding the queue only grows.
      const auto trace = rung_trace(rung, 1.35);
      const double span = trace.back().arrival;

      // ~3 outages per machine over the arrival span, 5% repair time.
      cluster::FaultScheduleOptions fopt;
      fopt.seed = 1;
      fopt.horizon = span;
      fopt.mtbf = span / 3.0;
      fopt.mttr = fopt.mtbf / 20.0;
      const auto schedule = cluster::fault_schedule(rung.machines, fopt);

      for (const bool protect : {false, true}) {
        cluster::ClusterConfig cfg;
        cfg.machines = rung.machines;
        cfg.slots = slots;
        cfg.regret_sample = 1;  // small rungs: bill every placement
        cfg.faults = schedule;
        if (protect) {
          cfg.migration.preempt = true;
          cfg.admission.queue_limit = rung.machines;
          cfg.admission.shed_below = 1;  // only the best-effort class
        }
        for (const bool oracle : {false, true}) {
          const Timed run = run_timed(cfg, additive, trace, truth, oracle);
          const cluster::ClusterResult& res = run.res;
          const std::vector<cluster::ClassStats>& cls = res.class_stats;
          // Per-class mean solo-normalized placement delay (completed).
          std::vector<double> wait_regret(cls.size(), 0.0);
          std::vector<std::size_t> wait_n(cls.size(), 0);
          // outcomes[i] is trace[i]: index by position, not JobSpec::id.
          for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
            const cluster::JobOutcome& out = res.outcomes[i];
            if (!out.completed()) continue;
            const cluster::JobSpec& job = trace[i];
            wait_regret[job.priority] += (out.start - job.arrival) / job.work;
            ++wait_n[job.priority];
          }
          for (std::size_t c = 0; c < wait_regret.size(); ++c)
            if (wait_n[c] != 0)
              wait_regret[c] /= static_cast<double>(wait_n[c]);
          const cluster::ClassStats& hp = cls.back();
          ftable.add_row({std::to_string(rung.machines),
                          std::to_string(rung.jobs), run.policy,
                          protect ? "protected" : "baseline",
                          std::to_string(res.failures),
                          std::to_string(res.migrations),
                          std::to_string(res.shed_jobs),
                          harness::Table::fmt(hp.goodput, 3),
                          harness::Table::fmt(hp.mean_stretch, 3),
                          harness::Table::fmt(wait_regret.back(), 3)});
          json::Value classes = json::array();
          for (std::size_t c = 0; c < cls.size(); ++c) {
            const cluster::ClassStats& cs = cls[c];
            classes.items.push_back(json::object(
                {{"class", json::integer(c)},
                 {"jobs", json::integer(cs.jobs)},
                 {"completed", json::integer(cs.completed)},
                 {"shed", json::integer(cs.shed)},
                 {"goodput", json::real(cs.goodput)},
                 {"mean_stretch", json::real(cs.mean_stretch)},
                 {"queueing_regret", json::real(wait_regret[c])},
                 {"decision_regret", json::real(cs.mean_regret)},
                 {"billed", json::integer(cs.billed)}}));
          }
          fault_rows.items.push_back(json::object(
              {{"machines", json::integer(rung.machines)},
               {"jobs", json::integer(rung.jobs)},
               {"policy", json::str(run.policy)},
               {"config", json::str(protect ? "protected" : "baseline")},
               {"wall_s", json::real(run.wall_s)},
               {"makespan", json::real(res.makespan)},
               {"failures", json::integer(res.failures)},
               {"migrations", json::integer(res.migrations)},
               {"shed_jobs", json::integer(res.shed_jobs)},
               {"shed_work", json::real(res.shed_work)},
               {"classes", std::move(classes)}}));
          std::cout << "  " << rung.machines << " machines x " << rung.jobs
                    << " jobs, " << run.policy << ", "
                    << (protect ? "protected" : "baseline ")
                    << ": top-class goodput "
                    << harness::Table::fmt(hp.goodput, 2) << ", stretch "
                    << harness::Table::fmt(hp.mean_stretch, 2) << ", shed "
                    << res.shed_jobs << " jobs\n";
        }
      }
    }

    std::cout << "\n";
    ftable.print(std::cout);

    // Pair each baseline row with the protected row of the same policy
    // and rung, and report whether protection won the top class. The
    // claim needs at least one compared pair: no pair proves nothing.
    const auto top = [](const json::Value& row, const char* key) {
      return row.at("classes").arr().back().at(key).num();
    };
    std::size_t pairs = 0, wins = 0;
    for (const json::Value& base : fault_rows.items)
      for (const json::Value& prot : fault_rows.items) {
        if (base.at("config").str() != "baseline" ||
            prot.at("config").str() != "protected" ||
            prot.at("policy").str() != base.at("policy").str() ||
            prot.at("machines").u64() != base.at("machines").u64())
          continue;
        const bool won =
            top(prot, "goodput") > top(base, "goodput") &&
            top(prot, "queueing_regret") < top(base, "queueing_regret");
        ++pairs;
        wins += won ? 1 : 0;
        std::cout << "  " << base.at("machines").u64() << " machines, "
                  << base.at("policy").str() << ": protection "
                  << (won ? "WINS" : "DOES NOT WIN")
                  << " the top class (goodput "
                  << harness::Table::fmt(top(base, "goodput"), 2) << " -> "
                  << harness::Table::fmt(top(prot, "goodput"), 2)
                  << ", queue regret "
                  << harness::Table::fmt(top(base, "queueing_regret"), 3)
                  << " -> "
                  << harness::Table::fmt(top(prot, "queueing_regret"), 3)
                  << ")\n";
      }
    std::cout << (pairs > 0 && wins == pairs
                      ? "  admission control + migration lifts top-class "
                        "goodput on every rung\n\n"
                      : "  WARNING: protection did not win every rung (" +
                            std::to_string(wins) + " of " +
                            std::to_string(pairs) + " compared pairs)\n\n");
  }

  table.print(std::cout);
  std::cout << "\nregret is billed at ground truth on every "
            << (regret_sample == 0 ? std::string("(never)")
                                   : std::to_string(regret_sample) + "th")
            << " decision; the oracle rows should stay ~0 at any scale.\n";

  const std::string model_name =
      std::string{arrivals == cluster::ArrivalModel::Poisson ? "poisson"
                  : arrivals == cluster::ArrivalModel::Diurnal ? "diurnal"
                                                               : "bursty"} +
      "+" + (work == cluster::WorkModel::Uniform ? "uniform" : "pareto");
  json::Value doc = json::object(
      {{"config", json::object({{"slots", json::integer(slots)},
                                {"regret_sample", json::integer(regret_sample)},
                                {"trace", json::str(model_name)},
                                {"types", json::integer(truth.size())}})},
       {"rungs", std::move(rung_rows)}});
  if (faults) doc.fields.emplace_back("fault_rungs", std::move(fault_rows));
  if (args.csv) std::cout << "\n" << bench::rows_csv(doc.at("rungs"));
  if (args.json) bench::emit_json("fleet_throughput", doc);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "fleet_throughput failed: " << e.what() << "\n";
  return 1;
}
