// render_timeline(): the obs view of a finished cluster run, read back
// from its ClusterResult alone (cluster subsystem).
#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace coperf::cluster {

using Kind = TraceEvent::Kind;

/// Simulated-time scale on the trace: 1 unit of work = 1 ms displayed.
constexpr double kUsPerUnit = 1000.0;

void render_timeline(const ClusterConfig& cfg,
                     const std::vector<JobSpec>& trace,
                     const std::string& policy, const ClusterResult& res) {
  obs::Registry& reg = obs::Registry::instance();
  for (const auto& [name, n] :
       {std::pair{"placements", res.placements},
        {"completions", res.completed_jobs}, {"failures", res.failures},
        {"recoveries", res.recoveries}, {"fault_kills", res.fault_kills},
        {"retries", res.retries}, {"migrations", res.migrations},
        {"shed", res.shed_jobs}})
    reg.counter(std::string{"cluster."} + name).add(n);
  for (std::size_t c = 0; c < res.class_stats.size() && !res.outcomes.empty();
       ++c)
    reg.gauge("cluster.goodput.p" + std::to_string(c))
        .set(res.class_stats[c].goodput);
  obs::Trace& tr = obs::Trace::instance();
  if (!tr.enabled()) return;
  const int pid = tr.next_pid();
  tr.name_process(pid, "cluster " + policy + " (" +
                           std::to_string(cfg.machines) + "x" +
                           std::to_string(cfg.slots) + ", simulated time)");
  for (std::size_t m = 0; m < cfg.machines; ++m)
    tr.name_thread(pid, static_cast<int>(m), "machine " + std::to_string(m));
  const auto label = [&](std::size_t type) {
    return type < cfg.type_names.size() ? cfg.type_names[type]
                                        : "t" + std::to_string(type);
  };
  std::unordered_map<std::size_t, std::size_t> index;  // JobSpec::id -> pos
  for (std::size_t i = 0; i < trace.size(); ++i) index.emplace(trace[i].id, i);
  const bool lc = res.lc_jobs > 0;  // bills carry LC regret

  // Per machine: its residents as (job, type), the start of its current
  // span (or outage), and whether it is up.
  using Job = std::pair<std::size_t, std::size_t>;
  std::vector<std::vector<Job>> residents(cfg.machines);
  std::vector<double> since(cfg.machines, 0.0);
  std::vector<char> up(cfg.machines, 1);
  // Closes machine m's resident-set span at t; call before it changes.
  const auto close = [&](std::size_t m, double t) {
    if (!residents[m].empty() && t > since[m]) {
      std::string name;
      for (const Job& r : residents[m])
        name += (name.empty() ? "" : "+") + label(r.second);
      tr.complete(pid, static_cast<int>(m), std::move(name),
                  since[m] * kUsPerUnit, (t - since[m]) * kUsPerUnit,
                  obs::Args{}.set("residents", residents[m].size()).str());
    }
    since[m] = t;
  };

  // Waiting-lane joins (+1) and departures (-1) by simulated time.
  std::vector<std::pair<double, int>> depth;
  std::vector<unsigned> kills(trace.size(), 0);
  const TraceLog::Events& log = res.log.events;
  std::size_t decision = 0, bill = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const TraceEvent& e = log[i];
    const std::size_t m = e.machine;
    const double t = e.time, ts = t * kUsPerUnit;
    if (e.kind == Kind::Fail) {
      close(m, t);
      residents[m].clear();
      up[m] = 0;
      continue;
    }
    if (e.kind == Kind::Recover) {
      tr.complete(pid, static_cast<int>(m), "DOWN", since[m] * kUsPerUnit,
                  (t - since[m]) * kUsPerUnit,
                  obs::Args{}.set("machine", m).str());
      since[m] = t;
      up[m] = 1;
      continue;
    }
    const std::size_t j = index.at(e.job);
    if (e.kind == Kind::Arrive) {
      // An arrival joins the lanes unless admission sheds it at once:
      // then its Shed is the next line.
      const bool shed = i + 1 < log.size() && log[i + 1].kind == Kind::Shed &&
                        log[i + 1].job == e.job;
      if (!shed) depth.emplace_back(t, 1);
    } else if (e.kind == Kind::Place) {
      close(m, t);
      residents[m].emplace_back(e.job, e.type);
      depth.emplace_back(t, -1);
      obs::Args args;
      args.set("job", e.job).set("policy", policy).set("predicted_cost",
                                                       e.value);
      if (cfg.regret_sample != 0 && decision++ % cfg.regret_sample == 0) {
        const DecisionBill& b = res.bills[bill++];
        args.set("true_cost", b.chosen).set("regret", b.regret);
        if (lc) args.set("lc_regret", b.lc_regret);
      }
      args.set("queued_for", t - trace[j].arrival);
      tr.instant_at(pid, static_cast<int>(m), "place " + label(e.type), ts,
                    args.str());
    } else if (e.kind == Kind::Evict && !up[m]) {
      // A failure kill: the job re-enters after the retry backoff.
      depth.emplace_back(t + retry_delay(++kills[j]), 1);
    } else if (e.kind != Kind::Shed) {  // Finish, or a preemptive Evict
      close(m, t);
      std::vector<Job>& r = residents[m];
      r.erase(std::find(r.begin(), r.end(), Job{e.job, e.type}));
      if (e.kind == Kind::Finish) continue;
      // drain() places the top lane's job right after a preemption.
      depth.emplace_back(t, 1);
      std::size_t next = i + 1;
      while (log[next].kind != Kind::Place) ++next;
      const unsigned for_class = trace[index.at(log[next].job)].priority;
      tr.instant_at(pid, static_cast<int>(m), "evict " + label(e.type), ts,
                    obs::Args{}
                        .set("job", e.job)
                        .set("for_class", for_class)
                        .set("work_left", e.value)
                        .str());
    }
  }

  // One queue_depth sample per instant, after its last change.
  std::sort(depth.begin(), depth.end());
  double waiting = 0.0;
  for (std::size_t i = 0; i < depth.size(); ++i) {
    waiting += depth[i].second;
    if (i + 1 == depth.size() || depth[i + 1].first != depth[i].first)
      tr.counter_at(pid, "queue_depth", depth[i].first * kUsPerUnit, waiting);
  }
}

}  // namespace coperf::cluster
