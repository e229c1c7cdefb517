#include "cluster/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace coperf::cluster {

namespace {
constexpr double kTwoPi = 6.283185307179586476925287;
}  // namespace

std::vector<JobSpec> synthetic_trace(std::size_t n_types,
                                     const TraceOptions& opt) {
  if (n_types == 0)
    throw std::invalid_argument{"synthetic_trace: no workload types"};
  if (opt.mean_interarrival <= 0.0 || opt.mean_work <= 0.0)
    throw std::invalid_argument{
        "synthetic_trace: interarrival/work means must be positive"};
  util::SplitMix64 rng{opt.seed};
  std::vector<JobSpec> trace;
  trace.reserve(opt.jobs);
  double t = 0.0;
  for (std::size_t i = 0; i < opt.jobs; ++i) {
    // Inverse-CDF exponential; uniform() < 1 so the log argument is > 0.
    t += -opt.mean_interarrival * std::log(1.0 - rng.uniform());
    JobSpec j;
    j.id = i;
    j.type = static_cast<std::size_t>(rng.below(n_types));
    j.arrival = t;
    j.work = opt.mean_work * (0.5 + rng.uniform());
    trace.push_back(j);
  }
  return trace;
}

std::vector<JobSpec> fleet_trace(std::size_t n_types,
                                 const FleetTraceOptions& opt) {
  if (n_types == 0)
    throw std::invalid_argument{"fleet_trace: no workload types"};
  if (opt.mean_interarrival <= 0.0 || opt.mean_work <= 0.0)
    throw std::invalid_argument{
        "fleet_trace: interarrival/work means must be positive"};
  if (opt.diurnal_amplitude < 0.0 || opt.diurnal_amplitude >= 1.0)
    throw std::invalid_argument{
        "fleet_trace: diurnal_amplitude must be in [0, 1)"};
  if (opt.diurnal_period <= 0.0)
    throw std::invalid_argument{"fleet_trace: diurnal_period must be positive"};
  if (opt.burst_boost < 1.0 || opt.burst_on <= 0.0 || opt.burst_on >= 1.0 ||
      opt.burst_mean_len < 1.0)
    throw std::invalid_argument{
        "fleet_trace: need burst_boost >= 1, burst_on in (0, 1), "
        "burst_mean_len >= 1"};
  if (opt.pareto_alpha <= 1.0)
    throw std::invalid_argument{
        "fleet_trace: pareto_alpha must be > 1 (finite mean)"};
  if (opt.work_cap <= 1.0)
    throw std::invalid_argument{"fleet_trace: work_cap must be > 1"};
  if (opt.class_shares.size() > kMaxPriority + 1)
    throw std::invalid_argument{"fleet_trace: too many priority classes"};
  double share_sum = 0.0;
  for (const double s : opt.class_shares) {
    if (s <= 0.0)
      throw std::invalid_argument{
          "fleet_trace: class shares must be positive"};
    share_sum += s;
  }

  util::SplitMix64 rng{opt.seed};
  // Pareto scaled to unit mean: multiplier = xm / (1-u)^(1/alpha) with
  // xm = (alpha-1)/alpha, so E[multiplier] = 1 before the cap.
  const double xm = (opt.pareto_alpha - 1.0) / opt.pareto_alpha;
  const double base_rate = 1.0 / opt.mean_interarrival;
  // Burst state flips per arrival: exit with probability 1/mean_len,
  // enter so the long-run arrival fraction inside bursts is burst_on.
  const double p_exit = 1.0 / opt.burst_mean_len;
  const double p_enter =
      opt.burst_on / (1.0 - opt.burst_on) / opt.burst_mean_len;

  std::vector<JobSpec> trace;
  trace.reserve(opt.jobs);
  double t = 0.0;
  bool bursting = false;
  for (std::size_t i = 0; i < opt.jobs; ++i) {
    // Instantaneous rate at the current time/state; the exponential
    // draw uses it directly (stepwise-constant approximation of the
    // nonhomogeneous process -- deterministic and plenty for a
    // synthetic generator).
    double rate = base_rate;
    switch (opt.arrivals) {
      case ArrivalModel::Poisson:
        break;
      case ArrivalModel::Diurnal:
        rate *= 1.0 + opt.diurnal_amplitude *
                          std::sin(kTwoPi * t / opt.diurnal_period);
        break;
      case ArrivalModel::Bursty:
        if (bursting) {
          rate *= opt.burst_boost;
          if (rng.uniform() < p_exit) bursting = false;
        } else if (rng.uniform() < p_enter) {
          bursting = true;
        }
        break;
    }
    t += -std::log(1.0 - rng.uniform()) / rate;

    JobSpec j;
    j.id = i;
    j.type = static_cast<std::size_t>(rng.below(n_types));
    j.arrival = t;
    switch (opt.work) {
      case WorkModel::Uniform:
        j.work = opt.mean_work * (0.5 + rng.uniform());
        break;
      case WorkModel::Pareto:
        j.work = opt.mean_work *
                 std::min(opt.work_cap,
                          xm / std::pow(1.0 - rng.uniform(),
                                        1.0 / opt.pareto_alpha));
        break;
    }
    if (!opt.class_shares.empty()) {
      double u = rng.uniform() * share_sum;
      unsigned cls = 0;
      for (; cls + 1 < opt.class_shares.size(); ++cls) {
        if (u < opt.class_shares[cls]) break;
        u -= opt.class_shares[cls];
      }
      j.priority = cls;
    }
    trace.push_back(j);
  }
  return trace;
}

std::vector<FaultEvent> fault_schedule(std::size_t machines,
                                       const FaultScheduleOptions& opt) {
  if (opt.horizon <= 0.0)
    throw std::invalid_argument{"fault_schedule: horizon must be positive"};
  if (opt.mtbf <= 0.0 || opt.mttr <= 0.0)
    throw std::invalid_argument{"fault_schedule: mtbf/mttr must be positive"};
  std::vector<FaultEvent> events;
  for (std::size_t m = 0; m < machines; ++m) {
    // Per-machine stream: machine m's schedule is invariant under
    // fleet-size changes (0x9E3779B97F4A7C15 is the SplitMix64 stream
    // spacing constant).
    util::SplitMix64 rng{opt.seed + 0x9E3779B97F4A7C15ull * (m + 1)};
    double t = 0.0;
    for (;;) {
      t += -opt.mtbf * std::log(1.0 - rng.uniform());  // up-time
      if (t >= opt.horizon) break;
      events.push_back({t, m, FaultEvent::Kind::Down});
      t += -opt.mttr * std::log(1.0 - rng.uniform());  // repair time
      events.push_back({t, m, FaultEvent::Kind::Up});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.machine != b.machine) return a.machine < b.machine;
              // A same-instant repair sorts before the next failure.
              return a.kind == FaultEvent::Kind::Up &&
                     b.kind == FaultEvent::Kind::Down;
            });
  return events;
}

namespace {

/// %.6f via snprintf: locale-independent, so log text is stable.
std::string fmt6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// How each TraceEvent::Kind renders, indexed by kind: its verb, whether
/// it names a job (and type) and a machine, and its value's label.
struct LineFormat {
  const char* verb;
  bool job, machine;
  const char* value;  ///< nullptr = no value
};
constexpr LineFormat kLineFormats[] = {
    {"arrive", true, false, nullptr},    {"place", true, true, "cost+="},
    {"finish", true, true, "slowdown="}, {"fail", false, true, nullptr},
    {"recover", false, true, nullptr},   {"evict", true, true, "work_left="},
    {"shed", true, false, "work_left="}, {"defer", true, false, "until="},
};

}  // namespace

void TraceLog::write(std::ostream& os,
                     const std::vector<std::string>& workloads) const {
  for (const TraceEvent& e : events) {
    const LineFormat& f = kLineFormats[static_cast<std::size_t>(e.kind)];
    os << "t=" << fmt6(e.time) << ' ' << f.verb;
    if (f.job)
      os << " job=" << e.job << " type="
         << (e.type < workloads.size() ? workloads[e.type] : "?");
    if (f.machine) os << " machine=" << e.machine;
    if (f.value) os << ' ' << f.value << fmt6(e.value);
    os << '\n';
  }
}

std::string TraceLog::str(const std::vector<std::string>& workloads) const {
  std::ostringstream ss;
  write(ss, workloads);
  return ss.str();
}

}  // namespace coperf::cluster
