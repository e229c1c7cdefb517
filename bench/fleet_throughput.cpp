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
// --json appends machine-readable output and persists it as
// BENCH_fleet_throughput.json at the repo root (the perf-CI snapshot),
// including the fault ladder's per-class breakdown when --faults is on.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "harness/report.hpp"
#include "snapshot.hpp"

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

}  // namespace

int main(int argc, char** argv) try {
  using namespace coperf;
  using Clock = std::chrono::steady_clock;

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

  struct Row {
    std::string policy;
    Rung rung{};
    double wall_s = 0.0;
    double dps = 0.0;  ///< placement decisions per second
    double stretch = 0.0;
    double regret = 0.0;
    std::size_t billed = 0;
    double makespan = 0.0;
  };
  std::vector<Row> rows;

  for (const Rung& rung : ladder) {
    cluster::FleetTraceOptions topt;
    topt.jobs = rung.jobs;
    topt.seed = 1;
    topt.arrivals = arrivals;
    topt.work = work;
    topt.class_shares = {0.75, 0.2, 0.05};
    // ~80% slot utilization at steady state.
    topt.mean_interarrival =
        topt.mean_work /
        (0.8 * static_cast<double>(rung.machines) * slots);
    const auto trace = cluster::fleet_trace(truth.size(), topt);

    cluster::ClusterConfig cfg;
    cfg.machines = rung.machines;
    cfg.slots = slots;
    cfg.regret_sample = regret_sample;

    cluster::RandomPolicy random{7};
    cluster::CostModelPolicy oracle{"oracle", truth};
    cluster::PlacementPolicy* policies[] = {&random, &oracle};
    for (cluster::PlacementPolicy* policy : policies) {
      const auto t0 = Clock::now();
      const auto res = cluster::simulate(cfg, additive, trace, *policy);
      const double wall =
          std::chrono::duration<double>(Clock::now() - t0).count();
      Row row;
      row.policy = policy->name();
      row.rung = rung;
      row.wall_s = wall;
      row.dps = static_cast<double>(rung.jobs) / wall;
      row.stretch = res.mean_stretch;
      row.regret = res.mean_decision_regret;
      row.billed = res.billed_decisions;
      row.makespan = res.makespan;
      rows.push_back(row);
      std::cout << "  " << rung.machines << " machines x " << rung.jobs
                << " jobs, " << row.policy << ": "
                << harness::Table::fmt(row.dps / 1e6, 2) << "M decisions/s ("
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
  struct FaultRow {
    std::string policy;
    bool protected_ = false;
    Rung rung{};
    double wall_s = 0.0;
    double makespan = 0.0;
    std::size_t failures = 0, migrations = 0, shed_jobs = 0;
    double shed_work = 0.0;
    std::vector<cluster::ClassStats> classes;
    /// Per-class mean solo-normalized placement delay (completed jobs).
    std::vector<double> wait_regret;
  };
  std::vector<FaultRow> frows;
  if (faults) {
    std::vector<Rung> fault_ladder = {{64, 20'000},
                                      {128, 40'000},
                                      {256, 80'000}};
    if (machines != 0) fault_ladder = {{machines, jobs}};
    else if (args.quick) fault_ladder.resize(1);

    std::cout << "== fault ladder: overload + machine churn ==\n";
    for (const Rung& rung : fault_ladder) {
      cluster::FleetTraceOptions topt;
      topt.jobs = rung.jobs;
      topt.seed = 1;
      topt.arrivals = arrivals;
      topt.work = work;
      topt.class_shares = {0.75, 0.2, 0.05};
      // ~135% of slot capacity: without shedding the queue only grows.
      topt.mean_interarrival =
          topt.mean_work /
          (1.35 * static_cast<double>(rung.machines) * slots);
      const auto trace = cluster::fleet_trace(truth.size(), topt);
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
        cluster::RandomPolicy random{7};
        cluster::CostModelPolicy oracle{"oracle", truth};
        cluster::PlacementPolicy* fpolicies[] = {&random, &oracle};
        for (cluster::PlacementPolicy* policy : fpolicies) {
          const auto t0 = Clock::now();
          const auto res = cluster::simulate(cfg, additive, trace, *policy);
          FaultRow fr;
          fr.policy = policy->name();
          fr.protected_ = protect;
          fr.rung = rung;
          fr.wall_s =
              std::chrono::duration<double>(Clock::now() - t0).count();
          fr.makespan = res.makespan;
          fr.failures = res.failures;
          fr.migrations = res.migrations;
          fr.shed_jobs = res.shed_jobs;
          fr.shed_work = res.shed_work;
          fr.classes = res.class_stats;
          fr.wait_regret.assign(fr.classes.size(), 0.0);
          std::vector<std::size_t> wait_n(fr.classes.size(), 0);
          for (const cluster::JobOutcome& out : res.outcomes) {
            if (!out.completed()) continue;
            const unsigned c = trace[out.job].priority;
            fr.wait_regret[c] += (out.start - out.arrival) / out.work;
            ++wait_n[c];
          }
          for (std::size_t c = 0; c < fr.wait_regret.size(); ++c)
            if (wait_n[c] != 0)
              fr.wait_regret[c] /= static_cast<double>(wait_n[c]);
          frows.push_back(fr);
          const cluster::ClassStats& hp = fr.classes.back();
          std::cout << "  " << rung.machines << " machines x " << rung.jobs
                    << " jobs, " << fr.policy << ", "
                    << (protect ? "protected" : "baseline ")
                    << ": top-class goodput "
                    << harness::Table::fmt(hp.goodput, 2) << ", stretch "
                    << harness::Table::fmt(hp.mean_stretch, 2) << ", shed "
                    << fr.shed_jobs << " jobs\n";
        }
      }
    }

    harness::Table ftable{{"machines", "jobs", "policy", "config",
                           "failures", "migrations", "shed", "hp goodput",
                           "hp stretch", "hp queue regret"}};
    for (const FaultRow& fr : frows) {
      const cluster::ClassStats& hp = fr.classes.back();
      ftable.add_row({std::to_string(fr.rung.machines),
                      std::to_string(fr.rung.jobs), fr.policy,
                      fr.protected_ ? "protected" : "baseline",
                      std::to_string(fr.failures),
                      std::to_string(fr.migrations),
                      std::to_string(fr.shed_jobs),
                      harness::Table::fmt(hp.goodput, 3),
                      harness::Table::fmt(hp.mean_stretch, 3),
                      harness::Table::fmt(fr.wait_regret.back(), 3)});
    }
    std::cout << "\n";
    ftable.print(std::cout);

    // Baseline rows and protected rows alternate per policy; pair them
    // up and report whether protection won the top class. The claim
    // needs at least one compared pair: no pair proves nothing.
    std::size_t pairs = 0, wins = 0;
    for (std::size_t i = 0; i < frows.size(); ++i) {
      const FaultRow& base = frows[i];
      if (base.protected_) continue;
      for (std::size_t j = i + 1; j < frows.size(); ++j) {
        const FaultRow& prot = frows[j];
        if (!prot.protected_ || prot.policy != base.policy ||
            prot.rung.machines != base.rung.machines)
          continue;
        const cluster::ClassStats& bh = base.classes.back();
        const cluster::ClassStats& ph = prot.classes.back();
        const bool won = ph.goodput > bh.goodput &&
                         prot.wait_regret.back() < base.wait_regret.back();
        ++pairs;
        wins += won ? 1 : 0;
        std::cout << "  " << base.rung.machines << " machines, "
                  << base.policy << ": protection "
                  << (won ? "WINS" : "DOES NOT WIN")
                  << " the top class (goodput "
                  << harness::Table::fmt(bh.goodput, 2) << " -> "
                  << harness::Table::fmt(ph.goodput, 2)
                  << ", queue regret "
                  << harness::Table::fmt(base.wait_regret.back(), 3)
                  << " -> "
                  << harness::Table::fmt(prot.wait_regret.back(), 3)
                  << ")\n";
        break;
      }
    }
    std::cout << (pairs > 0 && wins == pairs
                      ? "  admission control + migration lifts top-class "
                        "goodput on every rung\n\n"
                      : "  WARNING: protection did not win every rung (" +
                            std::to_string(wins) + " of " +
                            std::to_string(pairs) + " compared pairs)\n\n");
  }

  harness::Table table{{"machines", "jobs", "policy", "wall s",
                        "decisions/s", "mean stretch", "regret (sampled)",
                        "billed"}};
  std::string csv =
      "machines,jobs,policy,wall_s,decisions_per_s,mean_stretch,"
      "decision_regret,billed_decisions\n";
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.rung.machines),
                   std::to_string(r.rung.jobs), r.policy,
                   harness::Table::fmt(r.wall_s, 3),
                   harness::Table::fmt(r.dps, 0),
                   harness::Table::fmt(r.stretch, 3),
                   harness::Table::fmt(r.regret, 4),
                   std::to_string(r.billed)});
    csv += std::to_string(r.rung.machines) + "," +
           std::to_string(r.rung.jobs) + "," + r.policy + "," +
           harness::Table::fmt(r.wall_s, 4) + "," +
           harness::Table::fmt(r.dps, 1) + "," +
           harness::Table::fmt(r.stretch, 4) + "," +
           harness::Table::fmt(r.regret, 5) + "," +
           std::to_string(r.billed) + "\n";
  }
  table.print(std::cout);
  std::cout << "\nregret is billed at ground truth on every "
            << (regret_sample == 0 ? std::string("(never)")
                                   : std::to_string(regret_sample) + "th")
            << " decision; the oracle rows should stay ~0 at any scale.\n";

  if (args.csv) std::cout << "\n" << csv;
  if (args.json) {
    const auto model_name = [&] {
      std::string a = arrivals == cluster::ArrivalModel::Poisson ? "poisson"
                      : arrivals == cluster::ArrivalModel::Diurnal
                          ? "diurnal"
                          : "bursty";
      return a + "+" +
             (work == cluster::WorkModel::Uniform ? "uniform" : "pareto");
    }();
    std::ostringstream js;
    js << "{\n"
       << "  \"config\": {\"slots\": " << slots
       << ", \"regret_sample\": " << regret_sample << ", \"trace\": \""
       << model_name << "\", \"types\": " << truth.size() << "},\n"
       << "  \"rungs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      js << "    {\"machines\": " << r.rung.machines
         << ", \"jobs\": " << r.rung.jobs << ", \"policy\": \"" << r.policy
         << "\", \"wall_s\": " << r.wall_s
         << ", \"decisions_per_s\": " << r.dps
         << ", \"mean_stretch\": " << r.stretch
         << ", \"decision_regret\": " << r.regret
         << ", \"billed_decisions\": " << r.billed
         << ", \"makespan\": " << r.makespan << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    js << "  ]";
    if (faults) {
      js << ",\n  \"fault_rungs\": [\n";
      for (std::size_t i = 0; i < frows.size(); ++i) {
        const FaultRow& fr = frows[i];
        js << "    {\"machines\": " << fr.rung.machines
           << ", \"jobs\": " << fr.rung.jobs << ", \"policy\": \""
           << fr.policy << "\", \"config\": \""
           << (fr.protected_ ? "protected" : "baseline")
           << "\", \"wall_s\": " << fr.wall_s
           << ", \"makespan\": " << fr.makespan
           << ", \"failures\": " << fr.failures
           << ", \"migrations\": " << fr.migrations
           << ", \"shed_jobs\": " << fr.shed_jobs
           << ", \"shed_work\": " << fr.shed_work << ",\n"
           << "     \"classes\": [";
        for (std::size_t c = 0; c < fr.classes.size(); ++c) {
          const cluster::ClassStats& cs = fr.classes[c];
          js << (c == 0 ? "" : ", ")
             << "{\"class\": " << c << ", \"jobs\": " << cs.jobs
             << ", \"completed\": " << cs.completed
             << ", \"shed\": " << cs.shed
             << ", \"goodput\": " << cs.goodput
             << ", \"mean_stretch\": " << cs.mean_stretch
             << ", \"queueing_regret\": " << fr.wait_regret[c]
             << ", \"decision_regret\": " << cs.mean_regret
             << ", \"billed\": " << cs.billed << "}";
        }
        js << "]}" << (i + 1 < frows.size() ? "," : "") << "\n";
      }
      js << "  ]";
    }
    js << "\n}";
    std::cout << "\n" << js.str() << "\n";
    bench::write_snapshot("fleet_throughput", js.str());
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "fleet_throughput failed: " << e.what() << "\n";
  return 1;
}
