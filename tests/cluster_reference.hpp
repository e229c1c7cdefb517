// The cluster engine's executable specification: the pre-fleet event
// loop, its arithmetic kept verbatim. Every event rescans machines x
// slots and decrements remaining work, every MachineView is rebuilt
// per waiting job, and every decision is billed (regret_sample is
// ignored). The suites pin simulate() to it: byte-identical audit logs
// (rounding may differ below the log's fixed precision) and matching
// regret. It models FIFO batch jobs on a fault-free fleet only, and
// rejects any other config rather than mis-model it.
//
// The pin holds only where float paths cannot tie. The reference
// decrements remaining work event by event; the engine materializes it
// lazily and derives completion times from cached ETAs. Instants that
// are equal in exact arithmetic but reached through different float
// paths can therefore log in a different order, or differ in a
// printed last digit, between the two: with arrivals floored to a
// 0.25 grid and whole-unit work, two same-instant finishes swap, and a
// finish slowdown prints 1.164063 against 1.164062. Quantized traces
// must not be diffed against simulate_reference. Tie-heavy cells diff
// the engine against itself instead: the class-index suite
// (cluster_index_test.cpp) compares indexed and index-blind runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster_fixtures.hpp"

namespace coperf::cluster {

inline ClusterResult simulate_reference(const ClusterConfig& cfg,
                                        harness::InterferenceTruth& truth,
                                        const std::vector<JobSpec>& trace,
                                        PlacementPolicy& policy) {
  bool fifo_batch = cfg.faults.empty() && !cfg.migration.preempt &&
                    cfg.admission.queue_limit == 0;
  for (const JobSpec& j : trace)
    fifo_batch = fifo_batch && j.priority == 0 && !j.latency_critical();
  if (!fifo_batch)
    throw std::invalid_argument{
        "simulate_reference: FIFO batch jobs on a fault-free fleet only"};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::uint64_t fallbacks_before = truth.fallbacks();

  struct Running {
    std::size_t job = 0;
    double remaining = 0.0;  ///< solo-time units still to execute
  };
  std::vector<std::vector<Running>> machines(cfg.machines);
  std::deque<std::size_t> waiting;  // arrived, not yet placed (FIFO)
  ClusterResult res;
  res.outcomes.resize(trace.size());
  double t = 0.0;
  std::size_t next_arrival = 0;
  std::size_t running_count = 0;
  const auto log = [&](TraceEvent::Kind kind, std::size_t job,
                       std::size_t type, std::size_t m, double value) {
    res.log.events.push_back({kind, static_cast<std::uint16_t>(type),
                              static_cast<std::uint32_t>(m), t, job, value});
  };

  // Current slowdown of one resident: the truth oracle's answer for
  // its co-resident group (measured when the truth holds the group,
  // additive pairwise composition otherwise).
  const auto slowdown_of = [&](std::size_t m, std::size_t slot) {
    std::vector<std::size_t> others;
    for (std::size_t s = 0; s < machines[m].size(); ++s)
      if (s != slot) others.push_back(trace[machines[m][s].job].type);
    return truth.slowdown(trace[machines[m][slot].job].type, others);
  };

  const auto drain_waiting = [&] {
    while (!waiting.empty()) {
      std::vector<MachineView> views(cfg.machines);
      bool any_free = false;
      for (std::size_t m = 0; m < cfg.machines; ++m) {
        views[m].free_slots = cfg.slots - machines[m].size();
        any_free = any_free || views[m].free_slots > 0;
        for (const Running& r : machines[m])
          views[m].residents.push_back(
              {trace[r.job].type, std::max(0.0, r.remaining)});
      }
      if (!any_free) return;
      const std::size_t jid = waiting.front();
      waiting.pop_front();
      const JobSpec& job = trace[jid];
      const std::size_t m = policy.place(job, VectorClusterView{views});
      if (m >= cfg.machines || machines[m].size() >= cfg.slots)
        throw std::logic_error{"simulate: policy chose a full machine"};
      double chosen = 0.0, best = kInf;
      for (std::size_t v = 0; v < views.size(); ++v) {
        if (views[v].free_slots == 0) continue;
        const double d = placement_delta(truth, job.type, job.work, views[v]);
        if (v == m) chosen = d;
        best = std::min(best, d);
      }
      res.mean_decision_regret += chosen - best;
      if (!machines[m].empty()) {
        std::vector<std::size_t> group;
        group.push_back(job.type);
        for (const Running& r : machines[m])
          group.push_back(trace[r.job].type);
        std::vector<double> slowdowns(group.size(), 1.0);
        if (group.size() == 2) {
          slowdowns[0] = truth.pair_entry(group[0], group[1]);
          slowdowns[1] = truth.pair_entry(group[1], group[0]);
        } else {
          for (std::size_t i = 0; i < group.size(); ++i)
            slowdowns[i] =
                truth.slowdown(group[i], harness::others_excluding(group, i));
        }
        policy.observe_group(group, slowdowns);
      }
      machines[m].push_back({jid, job.work});
      ++running_count;
      JobOutcome& out = res.outcomes[jid];
      out.machine = static_cast<std::uint32_t>(m);
      out.start = t;
      ++res.placements;
      log(TraceEvent::Kind::Place, job.id, job.type, m,
          policy.last_cost_delta());
    }
  };

  while (next_arrival < trace.size() || running_count > 0 ||
         !waiting.empty()) {
    // Earliest completion under current (constant-between-events) rates;
    // ties resolve to the lowest machine then slot, deterministically.
    double t_done = kInf;
    std::size_t done_m = 0, done_s = 0;
    for (std::size_t m = 0; m < cfg.machines; ++m)
      for (std::size_t s = 0; s < machines[m].size(); ++s) {
        const double eta =
            t + std::max(0.0, machines[m][s].remaining) * slowdown_of(m, s);
        if (eta < t_done) {
          t_done = eta;
          done_m = m;
          done_s = s;
        }
      }
    const double t_arr =
        next_arrival < trace.size() ? trace[next_arrival].arrival : kInf;
    if (t_done == kInf && t_arr == kInf)
      throw std::logic_error{"simulate: stuck with waiting jobs"};

    // Completions first on ties: a freed slot should serve a job
    // arriving at the same instant.
    const double te = std::min(t_done, t_arr);
    for (std::size_t m = 0; m < cfg.machines; ++m)
      for (std::size_t s = 0; s < machines[m].size(); ++s)
        machines[m][s].remaining -= (te - t) / slowdown_of(m, s);
    t = te;

    if (t_done <= t_arr) {
      const std::size_t jid = machines[done_m][done_s].job;
      machines[done_m].erase(machines[done_m].begin() +
                             static_cast<std::ptrdiff_t>(done_s));
      --running_count;
      JobOutcome& out = res.outcomes[jid];
      out.finish = t;
      log(TraceEvent::Kind::Finish, trace[jid].id, trace[jid].type, done_m,
          out.corun_slowdown(trace[jid]));
    } else {
      const JobSpec& job = trace[next_arrival];
      log(TraceEvent::Kind::Arrive, job.id, job.type, 0, 0.0);
      waiting.push_back(next_arrival);
      ++next_arrival;
    }
    drain_waiting();
  }

  if (!res.outcomes.empty()) {
    res.billed_decisions = res.outcomes.size();
    for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
      const JobOutcome& o = res.outcomes[i];
      res.mean_stretch += o.stretch(trace[i]);
      res.mean_corun_slowdown += o.corun_slowdown(trace[i]);
      res.makespan = std::max(res.makespan, o.finish);
    }
    res.mean_stretch /= static_cast<double>(res.outcomes.size());
    res.mean_corun_slowdown /= static_cast<double>(res.outcomes.size());
    res.mean_decision_regret /= static_cast<double>(res.outcomes.size());
  }
  res.pairwise_fallbacks = truth.fallbacks() - fallbacks_before;
  return res;
}

}  // namespace coperf::cluster
