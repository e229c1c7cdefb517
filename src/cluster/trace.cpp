#include "cluster/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace coperf::cluster {

namespace {

constexpr double kTwoPi = 6.283185307179586476925287;

// fleet_trace()'s shapes (see ArrivalModel and WorkModel).
constexpr double kDiurnalPeriod = 1024.0;   // simulated time per "day"
constexpr double kDiurnalAmplitude = 0.75;  // peak-to-mean swing
constexpr double kBurstBoost = 8.0;         // rate multiplier in a burst
constexpr double kBurstOn = 0.1;            // share of arrivals in bursts
constexpr double kBurstMeanLen = 50.0;      // mean arrivals per burst
constexpr double kParetoAlpha = 1.8;        // tail index, > 1: finite mean
constexpr double kWorkCap = 256.0;          // cap on the Pareto multiplier

/// True for a finite x > 0; false for NaN, as every check here must be.
bool positive(double x) { return std::isfinite(x) && x > 0.0; }

}  // namespace

std::vector<JobSpec> synthetic_trace(std::size_t n_types,
                                     const TraceOptions& opt) {
  if (n_types == 0)
    throw std::invalid_argument{"synthetic_trace: no workload types"};
  if (!positive(opt.mean_interarrival) || !positive(opt.mean_work))
    throw std::invalid_argument{
        "synthetic_trace: interarrival/work means must be finite and > 0"};
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
  if (!positive(opt.mean_interarrival) || !positive(opt.mean_work))
    throw std::invalid_argument{
        "fleet_trace: interarrival/work means must be finite and > 0"};
  if (opt.class_shares.size() > kMaxPriority + 1)
    throw std::invalid_argument{"fleet_trace: too many priority classes"};
  double share_sum = 0.0;
  for (const double s : opt.class_shares) {
    if (!positive(s))
      throw std::invalid_argument{
          "fleet_trace: class shares must be finite and > 0"};
    share_sum += s;
  }

  util::SplitMix64 rng{opt.seed};
  // Pareto scaled to unit mean: multiplier = xm / (1-u)^(1/alpha) with
  // xm = (alpha-1)/alpha, so E[multiplier] = 1 before the cap.
  constexpr double xm = (kParetoAlpha - 1.0) / kParetoAlpha;
  const double base_rate = 1.0 / opt.mean_interarrival;
  // Burst state flips per arrival: exit with probability
  // 1/kBurstMeanLen, enter so the long-run arrival fraction inside
  // bursts is kBurstOn.
  constexpr double p_exit = 1.0 / kBurstMeanLen;
  constexpr double p_enter = kBurstOn / (1.0 - kBurstOn) / kBurstMeanLen;

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
        rate *= 1.0 + kDiurnalAmplitude *
                          std::sin(kTwoPi * t / kDiurnalPeriod);
        break;
      case ArrivalModel::Bursty:
        if (bursting) {
          rate *= kBurstBoost;
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
                 std::min(kWorkCap, xm / std::pow(1.0 - rng.uniform(),
                                                  1.0 / kParetoAlpha));
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
  // A NaN or infinite horizon would never end the draw loop below.
  if (!positive(opt.horizon) || !positive(opt.mtbf) || !positive(opt.mttr))
    throw std::invalid_argument{
        "fault_schedule: horizon, mtbf and mttr must be finite and > 0"};
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
    {"shed", true, false, "work_left="},
};
// One row per kind (Shed is the last enumerator).
static_assert(std::size(kLineFormats) ==
              static_cast<std::size_t>(TraceEvent::Kind::Shed) + 1);

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
