// Cluster placement regret billed at *measured group truth*: what
// prediction quality buys an online scheduler, and what the additive
// pairwise approximation was hiding.
//
// 1. Build a GroupTruth over the subset (default: the 8-workload Tiny
//    set predictor_accuracy uses) and batch-measure every resident
//    multiset a machine with --slots co-run slots can hold, up to
//    --max-truth-arity residents, in ONE deduplicated plan -- each
//    unique group simulates exactly once and repeats are served by the
//    content-addressed RunCache (set COPERF_RUN_CACHE_DIR to reuse
//    across invocations). Members run at cores/slots threads so the
//    largest group fills the machine.
// 2. Report the additive-vs-measured gap: how far composing the
//    measured pairwise projection lands from the truly measured
//    3+-resident slowdowns (predict::evaluate_groups).
// 3. Build the analytic predicted matrix from the solo signatures and
//    distill it into the trainable models (kNN, least squares).
// 4. Sweep synthetic arrival traces (--reps seeds) through the cluster
//    simulator under each policy and report mean stretch and
//    per-decision regret billed at group truth: random,
//    static-analytic (frozen prediction), online-refined lstsq/knn
//    (prediction + group-outcome feedback, 3-resident outcomes
//    deconvolved into pairwise refinement), and the group-truth oracle
//    (zero regret by construction). Any query the truth had to answer
//    by additive composition is counted and printed as a
//    pairwise-fallback -- zero when --max-truth-arity >= --slots.
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "harness/grouptruth.hpp"
#include "harness/report.hpp"
#include "harness/runcache.hpp"
#include "predict/eval.hpp"
#include "predict/predicted_matrix.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  unsigned machines = 4, slots = 3, max_truth_arity = 3;
  const auto extra = [&](const std::string& arg) {
    if (arg.rfind("--machines=", 0) == 0) {
      machines = bench::parse_unsigned("--machines", arg.substr(11));
      return true;
    }
    if (arg.rfind("--slots=", 0) == 0) {
      slots = bench::parse_unsigned("--slots", arg.substr(8));
      return true;
    }
    if (arg.rfind("--max-truth-arity=", 0) == 0) {
      max_truth_arity =
          bench::parse_unsigned("--max-truth-arity", arg.substr(18));
      return true;
    }
    return false;
  };
  const auto args = bench::parse_args(
      argc, argv, bench::kSubset | bench::kCsv | bench::kJson, extra,
      "--machines=N --slots=N --max-truth-arity=N");
  bench::print_config(args, "cluster placement regret at measured group "
                            "truth -- {random, static, online} vs oracle");
  if (slots < 2 || machines == 0 || max_truth_arity < 2) {
    std::cerr << "need --machines >= 1, --slots >= 2, --max-truth-arity >= 2\n";
    return 2;
  }

  std::vector<std::string> subset = args.subset;
  if (subset.empty())
    subset = {"Stream", "Bandit", "G-PR", "CIFAR", "fotonik3d",
              "swaptions", "IRSmk", "blackscholes"};

  const unsigned reps = args.effective_reps();

  // Ground truth: measured resident groups. Members share the machine
  // evenly, so the largest measured group fills its cores.
  harness::GroupTruth::Config gcfg;
  gcfg.workloads = subset;
  gcfg.opt = args.run_options();
  gcfg.reps = reps;
  gcfg.max_arity = std::min(max_truth_arity, slots);
  // Divide cores by SLOTS, not arity: a full machine holds `slots`
  // residents, so this is the geometry every trial (measured group or
  // composed pair) must be run at for the truth to describe it.
  gcfg.member_threads =
      std::max(1u, gcfg.opt.machine.num_cores / std::max(slots, 2u));
  harness::GroupTruth truth{gcfg};

  std::cout << "ground truth: " << subset.size() << " solos + every <= "
            << gcfg.max_arity << "-resident multiset of " << subset.size()
            << " types at " << gcfg.member_threads << " threads/member\n";
  const auto pstats = truth.prefetch_all(gcfg.max_arity, bench::plan_progress());
  std::cout << "  " << pstats.trials << " unique trials ("
            << pstats.residue << " to simulate, rest cached)\n";
  if (truth.truncated_trials() > 0)
    std::cerr << "WARNING: " << truth.truncated_trials()
              << " group trial(s) hit the cycle limit -- their slowdowns "
                 "are lower bounds, not measurements (raise cycle_limit or "
                 "shrink --size)\n";

  // RunCache behaviour comes off the uniform metrics surface (the
  // counters the cache maintains in the obs registry), not bespoke
  // Stats plumbing -- the same numbers --metrics exposes.
  obs::Registry& reg = obs::Registry::instance();
  std::cout << "run cache: " << reg.counter("runcache.misses").value()
            << " simulated, " << reg.counter("runcache.hits").value()
            << " memory hits, " << reg.counter("runcache.disk_hits").value()
            << " disk hits";
  if (harness::RunCache::instance().disk_dir().empty())
    std::cout << " (set COPERF_RUN_CACHE_DIR to reuse across invocations)";
  std::cout << "\n\n";

  std::vector<predict::WorkloadSignature> sigs;
  for (std::size_t i = 0; i < subset.size(); ++i)
    sigs.push_back(
        predict::WorkloadSignature::from(truth.solo(i), args.machine()));
  const harness::CorunMatrix& pairwise = truth.pairwise();

  const predict::BandwidthContentionModel analytic;
  const harness::CorunMatrix predicted =
      predict::predicted_matrix(sigs, analytic);
  const auto distilled_pairs = predict::training_pairs(predicted, sigs);

  // The additive-vs-measured gap over every measured 3+-resident group:
  // what the pre-grouptruth pipeline billed with vs what actually runs.
  predict::GroupEval gap{};
  {
    std::vector<harness::GroupObservation> big;
    for (auto& o : truth.observations())
      if (o.others.size() >= 2) big.push_back(std::move(o));
    if (!big.empty()) {
      gap = predict::evaluate_groups(big, sigs, pairwise, analytic);
      std::cout << "additive composition vs measured >=3-resident truth ("
                << gap.observations << " member observations):\n"
                << "  composed-pairwise MAE "
                << harness::Table::fmt(gap.additive_mae, 4) << " (max gap "
                << harness::Table::fmt(gap.max_additive_gap, 4)
                << "), analytic predict_group MAE "
                << harness::Table::fmt(gap.model_mae, 4) << "\n\n";
    }
  }

  cluster::ClusterConfig cfg;
  cfg.machines = machines;
  cfg.slots = slots;
  cfg.type_names = subset;  // label the trace timeline with real names
  cluster::TraceOptions topt;
  topt.jobs = 1000;
  topt.mean_work = 8.0;
  topt.mean_interarrival =
      topt.mean_work / (0.8 * static_cast<double>(cfg.machines * cfg.slots));

  // Trace seeds are independent of the measurement reps: even a
  // --quick run sweeps a few arrival patterns.
  const unsigned seeds = std::max(3u, args.effective_reps());
  struct Row {
    std::string name;
    double stretch = 0.0, slowdown = 0.0, regret = 0.0;
    std::uint64_t fallbacks = 0;
  };
  std::vector<Row> rows = {{"random", 0, 0, 0, 0},
                           {"static-analytic", 0, 0, 0, 0},
                           {"online-lstsq", 0, 0, 0, 0},
                           {"online-knn", 0, 0, 0, 0},
                           {"oracle", 0, 0, 0, 0}};

  std::cout << "sweeping " << seeds << " arrival trace(s) of " << topt.jobs
            << " jobs over " << cfg.machines << " machines x " << cfg.slots
            << " slots...\n";
  for (unsigned seed = 1; seed <= seeds; ++seed) {
    topt.seed = seed;
    const auto trace = cluster::synthetic_trace(subset.size(), topt);

    // Fresh policy state per trace: regret measures one cold start.
    auto lstsq = std::make_unique<predict::LeastSquaresModel>();
    lstsq->train(distilled_pairs);
    auto knn = std::make_unique<predict::KnnModel>();
    knn->train(distilled_pairs);
    cluster::RandomPolicy random{seed};
    cluster::CostModelPolicy statics{"static-analytic", predicted};
    cluster::OnlineRefinedPolicy online_lstsq{"online-lstsq",
                                              std::move(lstsq), sigs};
    cluster::OnlineRefinedPolicy online_knn{"online-knn", std::move(knn),
                                            sigs};
    cluster::GroupTruthPolicy oracle{"oracle", truth};

    cluster::PlacementPolicy* policies[] = {&random, &statics, &online_lstsq,
                                            &online_knn, &oracle};
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const auto run = cluster::simulate(cfg, truth, trace, *policies[p]);
      rows[p].stretch += run.mean_stretch;
      rows[p].slowdown += run.mean_corun_slowdown;
      rows[p].regret += run.mean_decision_regret;
      rows[p].fallbacks += run.pairwise_fallbacks;
    }
  }

  harness::Table table{{"policy", "mean stretch", "co-run slowdown",
                        "decision regret", "pairwise fallbacks"}};
  json::Value policies = json::array();
  std::uint64_t total_fallbacks = 0;
  for (Row& r : rows) {
    r.stretch /= seeds;
    r.slowdown /= seeds;
    r.regret /= seeds;
    total_fallbacks += r.fallbacks;
    table.add_row({r.name, harness::Table::fmt(r.stretch, 3),
                   harness::Table::fmt(r.slowdown, 3),
                   harness::Table::fmt(r.regret, 4),
                   std::to_string(r.fallbacks)});
    policies.items.push_back(json::object(
        {{"policy", json::str(r.name)}, {"mean_stretch", json::real(r.stretch)},
         {"corun_slowdown", json::real(r.slowdown)},
         {"decision_regret", json::real(r.regret)},
         {"pairwise_fallbacks", json::integer(r.fallbacks)}}));
  }
  table.print(std::cout);

  std::cout << "\npairwise-fallback count: " << total_fallbacks
            << " (max-truth-arity=" << gcfg.max_arity << ", slots=" << slots
            << (total_fallbacks == 0
                    ? ") -- every billed group was truly measured\n"
                    : ") -- groups above the measured arity were billed by "
                      "additive composition\n");

  const double static_regret = rows[1].regret;
  const double online_regret = rows[2].regret;
  const double oracle_regret = rows[4].regret;
  std::cout << "\nper-decision placement regret (machine time handed to "
               "interference, billed at measured group truth):\n"
            << "  online-refined " << harness::Table::fmt(online_regret, 4)
            << " vs static-analytic "
            << harness::Table::fmt(static_regret, 4) << " -- "
            << (online_regret <= static_regret + 1e-9 ? "refinement pays"
                                                      : "REGRESSION")
            << "\n  group-truth oracle "
            << harness::Table::fmt(oracle_regret, 4)
            << (oracle_regret <= 1e-9 ? " (zero by construction)" : "")
            << "\n";
  const json::Value doc = json::object(
      {{"config",
        json::object({{"size", json::str(bench::size_name(args.size()))},
                      {"reps", json::integer(reps)},
                      {"workloads", json::integer(subset.size())},
                      {"machines", json::integer(machines)},
                      {"slots", json::integer(slots)},
                      {"max_truth_arity", json::integer(gcfg.max_arity)},
                      {"seeds", json::integer(seeds)}})},
       {"truth", json::object({{"trials", json::integer(pstats.trials)},
                               {"residue", json::integer(pstats.residue)},
                               {"truncated",
                                json::integer(truth.truncated_trials())}})},
       {"additive_gap",
        json::object({{"observations", json::integer(gap.observations)},
                      {"additive_mae", json::real(gap.additive_mae)},
                      {"max_additive_gap", json::real(gap.max_additive_gap)},
                      {"model_mae", json::real(gap.model_mae)}})},
       {"policies", std::move(policies)}});
  if (args.csv) std::cout << "\n" << bench::rows_csv(doc.at("policies"));
  if (args.json) bench::emit_json("cluster_regret", doc);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
