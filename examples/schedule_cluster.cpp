// Cluster-scale interference-aware scheduling demo: from solo profiles
// to an online placement loop.
//
// 1. Profile a small job mix and measure its co-run matrix (the ground
//    truth the simulator runs on).
// 2. Predict the matrix from the solo signatures alone (the O(N) path).
// 3. Stream a synthetic arrival trace through a simulated cluster and
//    compare placement policies: random, static-analytic (frozen
//    prediction), online-refined (prediction + group-outcome feedback
//    from every placement), and the oracle (a GroupTruthPolicy asking
//    the ground-truth oracle directly -- here a MatrixTruth over the
//    measured pair matrix; swap in a harness::GroupTruth to bill
//    3+-slot machines at truly measured group slowdowns).
//
// Usage: schedule_cluster [job1 job2 ... jobN]
//   default: G-CC fotonik3d swaptions IRSmk blackscholes CIFAR
#include <iostream>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/session.hpp"
#include "harness/report.hpp"
#include "predict/predicted_matrix.hpp"

int main(int argc, char** argv) {
  using namespace coperf;
  std::vector<std::string> jobs;
  for (int i = 1; i < argc; ++i) jobs.emplace_back(argv[i]);
  if (jobs.empty())
    jobs = {"G-CC", "fotonik3d", "swaptions", "IRSmk", "blackscholes", "CIFAR"};

  Session session{sim::MachineConfig::scaled(), wl::SizeClass::Tiny};
  std::cout << "profiling " << jobs.size() << " workload types (solo) and "
            << "measuring the " << jobs.size() << "x" << jobs.size()
            << " ground-truth matrix...\n\n";
  const auto sigs = predict::collect_signatures(jobs, session.options(),
                                                /*reps=*/1);
  const auto truth = session.corun_matrix(/*reps=*/1, jobs);
  harness::print_heatmap(std::cout, truth);

  // The analytic prediction, and a least-squares model distilled from
  // it: the distilled model starts where the analytic one stands but
  // can absorb observations (RLS) as the cluster runs.
  const predict::BandwidthContentionModel analytic;
  const auto predicted = predict::predicted_matrix(sigs, analytic);
  auto online_model = std::make_unique<predict::LeastSquaresModel>();
  online_model->train(predict::training_pairs(predicted, sigs));

  cluster::ClusterConfig cfg;
  cfg.machines = 3;
  cfg.slots = 2;
  cluster::TraceOptions topt;
  topt.jobs = 60;
  topt.seed = 7;
  topt.mean_work = 8.0;
  // ~80% offered load against the cluster's 6 slots.
  topt.mean_interarrival =
      topt.mean_work / (0.8 * static_cast<double>(cfg.machines * cfg.slots));
  const auto trace = cluster::synthetic_trace(jobs.size(), topt);

  // The ground truth as an oracle: additive over the measured pair
  // matrix (exact for 2-slot machines, where every group IS a pair).
  harness::MatrixTruth ground{truth};
  cluster::RandomPolicy random{topt.seed};
  cluster::CostModelPolicy statics{"static-analytic", predicted};
  cluster::OnlineRefinedPolicy online{"online-refined",
                                      std::move(online_model), sigs};
  cluster::GroupTruthPolicy oracle{"oracle", ground};

  std::cout << "\nstreaming " << trace.size() << " jobs onto "
            << cfg.machines << " machines x " << cfg.slots
            << " slots (first placements):\n";
  {
    const auto run = cluster::simulate(cfg, ground, trace, statics);
    std::string text = run.log.str(truth.workloads);
    std::size_t lines = 0, pos = 0;
    while (lines < 8 && (pos = text.find('\n', pos)) != std::string::npos)
      ++lines, ++pos;
    std::cout << text.substr(0, pos) << "  ...\n";
  }

  std::cout << "\npolicy comparison (stretch = solo-normalized turnaround; "
               "regret = true machine time\nper decision handed to "
               "interference beyond the best available choice):\n";
  const auto show = [&](const char* name, const cluster::ClusterResult& r) {
    std::cout << "  " << name << ": mean stretch "
              << harness::Table::fmt(r.mean_stretch) << "x, co-run slowdown "
              << harness::Table::fmt(r.mean_corun_slowdown)
              << "x, decision regret "
              << harness::Table::fmt(r.mean_decision_regret, 4) << "\n";
  };
  show("random          ", cluster::simulate(cfg, ground, trace, random));
  show("static-analytic ", cluster::simulate(cfg, ground, trace, statics));
  const auto online_run = cluster::simulate(cfg, ground, trace, online);
  show("online-refined  ", online_run);
  show("oracle          ", cluster::simulate(cfg, ground, trace, oracle));
  std::cout << "\nonline refinement observed " << online.observed_cells()
            << "/" << jobs.size() * jobs.size()
            << " matrix cells while placing the stream\n";
  return 0;
}
