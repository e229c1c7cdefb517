// Predictor accuracy: the O(N) -> O(N^2) story, end to end.
//
// 1. Build ONE plan holding the measured co-run matrix (the expensive
//    ground truth) and the N solo profiles -- the solos double as the
//    matrix's baselines, so the plan simulates each unique trial
//    exactly once.
// 2. Derive N solo signatures from the plan's solo results (the cheap
//    O(N) pass).
// 3. Predict the matrix with the analytic bandwidth model and, via
//    leave-one-workload-out, with the data-driven kNN and least-squares
//    models.
// 4. Report MAE / Spearman rho / pair-class confusion per model, and
//    the placement decision regret: a cost-model policy planning on
//    the predicted matrix places three synthetic arrival traces on a
//    4-machine x 2-slot cluster whose truth is the measured matrix
//    (exact at 2 slots); cluster::simulate bills every decision there.
// 5. Re-baseline against *measured group truth*: a deterministic
//    sample of 3-resident groups is truly measured (GroupTruth) and
//    both the additive composition of measured pairs and the models'
//    predict_group() are scored against it -- the additive-vs-measured
//    gap the pairwise era could not see.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "harness/grouptruth.hpp"
#include "harness/report.hpp"
#include "predict/eval.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  const auto args = bench::parse_args(
      argc, argv, bench::kSubset | bench::kCsv | bench::kJson);
  bench::print_config(args, "predictor accuracy -- solo signatures vs. "
                            "measured co-run matrix");

  // Default subset: one representative per suite plus both
  // mini-benchmarks -- small enough to measure, diverse enough that the
  // three pair classes all appear.
  std::vector<std::string> subset = args.subset;
  if (subset.empty())
    subset = {"Stream", "Bandit", "G-PR", "CIFAR", "fotonik3d",
              "swaptions", "IRSmk", "blackscholes"};

  const unsigned reps = args.effective_reps();
  harness::MatrixSpec mspec{subset, reps, {}};
  harness::ExperimentPlan plan = args.plan();
  plan.add_matrix(mspec);  // solo baselines + all fg x bg cells
  std::cout << "plan: " << subset.size() << " solos + " << subset.size() << "x"
            << subset.size() << " co-runs = " << plan.trial_count()
            << " unique trials (" << plan.residue_count()
            << " not yet cached)\n\n";
  const harness::ResultSet rs = plan.execute(0, bench::plan_progress());

  std::vector<predict::WorkloadSignature> sigs;
  for (const auto& w : subset)
    sigs.push_back(predict::WorkloadSignature::from(
        rs.solo({w, args.threads, reps}), args.machine()));
  const harness::CorunMatrix measured = rs.matrix(mspec);

  // Placement consequence of prediction error, judged the way every
  // cluster policy is: per-decision regret billed at ground truth. The
  // trace settings match bench/cluster_regret.
  cluster::ClusterConfig fleet;
  fleet.machines = 4;
  fleet.slots = 2;
  cluster::TraceOptions topt;
  topt.jobs = 1000;
  topt.mean_work = 8.0;
  topt.mean_interarrival =
      topt.mean_work / (0.8 * static_cast<double>(fleet.machines * fleet.slots));
  std::vector<std::vector<cluster::JobSpec>> traces;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    topt.seed = seed;
    traces.push_back(cluster::synthetic_trace(measured.size(), topt));
  }
  const auto decision_regret = [&](const std::string& name,
                                   const harness::CorunMatrix& predicted) {
    double total = 0.0;
    for (const auto& trace : traces) {
      harness::MatrixTruth truth{measured};
      cluster::CostModelPolicy policy{name, predicted};
      total += cluster::simulate(fleet, truth, trace, policy).mean_decision_regret;
    }
    return total / static_cast<double>(traces.size());
  };

  std::string csv = "model,mae,rmse,spearman,class_agreement,decision_regret\n";
  const auto report = [&](const std::string& name,
                          const predict::EvalResult& e,
                          const harness::CorunMatrix& predicted) {
    std::cout << "-- " << name << " --\n" << e.summary();
    const double regret = decision_regret(name, predicted);
    std::cout << "placement: decision regret " << harness::Table::fmt(regret, 4)
              << " (cost model on this prediction, " << fleet.machines
              << " machines x " << fleet.slots << " slots, " << traces.size()
              << " traces of " << topt.jobs << " jobs at measured truth)\n\n";
    csv += name + "," + harness::Table::fmt(e.mae, 4) + "," +
           harness::Table::fmt(e.rmse, 4) + "," +
           harness::Table::fmt(e.spearman, 4) + "," +
           harness::Table::fmt(e.confusion.agreement(), 4) + "," +
           harness::Table::fmt(regret, 5) + "\n";
  };

  // Analytic model: no training, pure counter arithmetic.
  const predict::BandwidthContentionModel analytic;
  const harness::CorunMatrix analytic_pred =
      predict::predicted_matrix(sigs, analytic);
  report("bandwidth (analytic)", predict::evaluate(measured, analytic_pred),
         analytic_pred);

  // Data-driven models under the honest leave-one-workload-out
  // protocol: both the accuracy numbers and the decision regret come
  // from the held-out assembled matrix.
  if (measured.size() >= 3) {
    {
      harness::CorunMatrix loo_pred;
      const auto loo = predict::leave_one_out(
          measured, sigs,
          [] { return std::make_unique<predict::KnnModel>(); }, &loo_pred);
      report("knn (leave-one-out)", loo, loo_pred);
    }
    {
      harness::CorunMatrix loo_pred;
      const auto loo = predict::leave_one_out(
          measured, sigs,
          [] { return std::make_unique<predict::LeastSquaresModel>(); },
          &loo_pred);
      report("lstsq (leave-one-out)", loo, loo_pred);
    }
  }

  // -- Group-truth re-baseline -----------------------------------------
  // Measured 3-resident groups (members at cores/3 threads so the trio
  // fills the machine) vs the additive composition the pairwise era
  // assumed was ground truth. The sample is a deterministic stride over
  // all distinct triples, capped so this stays a side dish; the cap is
  // printed, never silent.
  if (subset.size() >= 3) {
    harness::GroupTruth::Config gcfg;
    gcfg.workloads = subset;
    gcfg.opt = args.run_options();
    gcfg.reps = reps;
    gcfg.max_arity = 3;
    gcfg.member_threads =
        std::max(1u, gcfg.opt.machine.num_cores / gcfg.max_arity);
    harness::GroupTruth truth{gcfg};

    std::vector<std::vector<std::size_t>> triples;
    for (std::size_t i = 0; i < subset.size(); ++i)
      for (std::size_t j = i + 1; j < subset.size(); ++j)
        for (std::size_t k = j + 1; k < subset.size(); ++k)
          triples.push_back({i, j, k});
    constexpr std::size_t kMaxGroups = 12;
    std::vector<std::vector<std::size_t>> sample;
    const std::size_t stride = std::max<std::size_t>(1, triples.size() / kMaxGroups);
    for (std::size_t t = 0; t < triples.size() && sample.size() < kMaxGroups;
         t += stride)
      sample.push_back(triples[t]);

    std::cout << "\n== group-truth re-baseline ==\n"
              << "measuring " << sample.size() << " of " << triples.size()
              << " distinct 3-resident groups (every member foreground once, "
              << gcfg.member_threads << " threads/member) + the pairwise "
              << "projection...\n";
    truth.prefetch(sample, bench::plan_progress());
    const harness::CorunMatrix& pairwise = truth.pairwise();
    std::vector<predict::WorkloadSignature> gsigs;
    for (std::size_t i = 0; i < subset.size(); ++i)
      gsigs.push_back(
          predict::WorkloadSignature::from(truth.solo(i), args.machine()));

    std::vector<harness::GroupObservation> obs;
    for (auto& o : truth.observations())
      if (o.others.size() >= 2) obs.push_back(std::move(o));
    const auto ge = predict::evaluate_groups(obs, gsigs, pairwise, analytic);
    std::cout << ge.observations << " member observations:\n"
              << "  composed measured pairs : MAE "
              << harness::Table::fmt(ge.additive_mae, 4) << ", RMSE "
              << harness::Table::fmt(ge.additive_rmse, 4) << ", max gap "
              << harness::Table::fmt(ge.max_additive_gap, 4) << "\n"
              << "  analytic predict_group  : MAE "
              << harness::Table::fmt(ge.model_mae, 4) << ", RMSE "
              << harness::Table::fmt(ge.model_rmse, 4) << ", Spearman "
              << harness::Table::fmt(ge.model_spearman, 4) << "\n";
    csv += "group-additive," + harness::Table::fmt(ge.additive_mae, 4) + "," +
           harness::Table::fmt(ge.additive_rmse, 4) + ",,,\n";
    csv += "group-analytic," + harness::Table::fmt(ge.model_mae, 4) + "," +
           harness::Table::fmt(ge.model_rmse, 4) + "," +
           harness::Table::fmt(ge.model_spearman, 4) + ",,\n";
  }

  std::cout << "\ncost: measured sweep = " << subset.size() * subset.size()
            << " co-runs; predictor = " << subset.size()
            << " solo runs + inference\n";
  if (args.csv) std::cout << "\n" << csv;
  if (args.json)
    std::cout << "\n" << harness::report::to_json(measured) << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
