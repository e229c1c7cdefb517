#include "predict/signature.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "harness/plan.hpp"

namespace coperf::predict {

namespace {

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

constexpr const char* kSignatureHeader = "coperf-signatures v2";

[[noreturn]] void malformed(const std::string& line) {
  throw std::runtime_error{"load_signatures: malformed line '" + line + "'"};
}

/// One unsigned count field. Parsed with from_chars rather than
/// `istream >> unsigned`, which reads "-1" as the type's maximum.
template <typename T>
T read_count(std::istream& is, const std::string& line) {
  std::string tok;
  is >> tok;
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (tok.empty() || ec != std::errc{} || ptr != end) malformed(line);
  return v;
}

}  // namespace

double WorkloadSignature::dram_share() const {
  return l2_mpki > 0 ? clamp01(llc_mpki / l2_mpki) : 1.0;
}

double WorkloadSignature::llc_reuse_exposure() const {
  // L2 misses served by the LLC, per kilo-instruction; ~50/KI means the
  // hot loop lives in the shared cache (G-PR style).
  return clamp01((l2_mpki - llc_mpki) / 50.0);
}

double WorkloadSignature::llc_sweep_pressure() const {
  // A workload evicts a co-runner's LLC-resident set only if it (a) has
  // a footprint that overflows the LLC, (b) moves real bandwidth, and
  // (c) actually streams new lines (prefetch-dominated traffic) rather
  // than re-missing the same conflict sets like Bandit.
  return std::min(1.0, footprint_vs_llc) * std::min(1.0, bw_fraction) *
         prefetch_share;
}

double WorkloadSignature::channel_bound_frac() const {
  // Demand-visible DRAM time (L2_PCP scaled by how many of those
  // pending misses reach DRAM) or prefetch-hidden streaming (bandwidth
  // fraction), whichever exposes more of the run to the channel.
  return std::min(1.0, std::max(l2_pcp * dram_share(), bw_fraction));
}

double WorkloadSignature::intensity() const {
  // Pressure on the two shared resources: the memory channel (bandwidth
  // fraction, the paper's Fig. 3 axis) and the LLC (sweep pressure on a
  // co-runner's resident working set).
  return clamp01(0.65 * std::min(1.0, bw_fraction) +
                 0.35 * llc_sweep_pressure());
}

double WorkloadSignature::sensitivity() const {
  // Exposure: time on the shared channel (a saturated channel stretches
  // it) plus LLC-resident reuse (an LLC sweep converts it to DRAM
  // misses). A compute-bound workload with neither cannot be slowed
  // much no matter how loud the neighbour.
  return clamp01(0.6 * channel_bound_frac() + 0.4 * llc_reuse_exposure());
}

std::vector<double> WorkloadSignature::features() const {
  return {cpi,
          ipc,
          l2_pcp,
          llc_mpki,
          l2_mpki,
          ll,
          bw_fraction,
          footprint_vs_llc,
          mem_stall_frac,
          prefetch_share,
          peak_region_llc_mpki,
          peak_region_l2_pcp};
}

const std::vector<std::string>& WorkloadSignature::feature_names() {
  static const std::vector<std::string> names = {
      "cpi",
      "ipc",
      "l2_pcp",
      "llc_mpki",
      "l2_mpki",
      "ll",
      "bw_fraction",
      "footprint_vs_llc",
      "mem_stall_frac",
      "prefetch_share",
      "peak_region_llc_mpki",
      "peak_region_l2_pcp"};
  return names;
}

WorkloadSignature WorkloadSignature::from(const harness::RunResult& solo,
                                          const sim::MachineConfig& machine) {
  WorkloadSignature s;
  s.workload = solo.workload;
  s.threads = solo.threads;
  s.cpi = solo.metrics.cpi;
  s.ipc = solo.metrics.ipc;
  s.l2_pcp = solo.metrics.l2_pcp;
  s.llc_mpki = solo.metrics.llc_mpki;
  s.l2_mpki = solo.metrics.l2_mpki;
  s.ll = solo.metrics.ll;
  s.solo_bw_gbs = solo.avg_bw_gbs;
  s.bw_fraction =
      machine.peak_bw_gbs > 0 ? solo.avg_bw_gbs / machine.peak_bw_gbs : 0.0;
  s.footprint_vs_llc =
      machine.l3.size_bytes > 0
          ? static_cast<double>(solo.footprint_bytes) /
                static_cast<double>(machine.l3.size_bytes)
          : 0.0;
  s.mem_stall_frac =
      solo.stats.cycles > 0
          ? static_cast<double>(solo.stats.stall_cycles_mem) /
                static_cast<double>(solo.stats.cycles)
          : 0.0;
  s.solo_lat_p50 = solo.latency.quantile(0.50);
  s.solo_lat_p99 = solo.latency.quantile(0.99);
  s.request_count = solo.latency.count;
  // bytes_from_mem counts demand line fills only; the PCM-measured
  // bandwidth additionally carries prefetch fills and writebacks.
  // Whatever the channel moved beyond demand was fetched ahead by the
  // prefetchers (spatial streaming).
  const double demand_bw_gbs =
      solo.seconds > 0
          ? static_cast<double>(solo.stats.bytes_from_mem) / solo.seconds / 1e9
          : 0.0;
  s.prefetch_share =
      solo.avg_bw_gbs > 0
          ? std::clamp(1.0 - demand_bw_gbs / solo.avg_bw_gbs, 0.0, 1.0)
          : 0.0;
  for (const auto& region : solo.regions) {
    s.peak_region_llc_mpki =
        std::max(s.peak_region_llc_mpki, region.metrics.llc_mpki);
    s.peak_region_l2_pcp =
        std::max(s.peak_region_l2_pcp, region.metrics.l2_pcp);
  }
  s.solo_cycles = solo.cycles;
  s.solo_seconds = solo.seconds;
  return s;
}

std::vector<WorkloadSignature> collect_signatures(
    const std::vector<std::string>& workloads, const harness::RunOptions& opt,
    unsigned reps) {
  // One plan for the N solos: repeated names and solos the RunCache
  // already holds are deduplicated like any other plan's trials.
  harness::ExperimentPlan plan{opt};
  for (const auto& w : workloads) plan.add_solo({w, opt.threads, reps});
  const harness::ResultSet rs = plan.execute();
  std::vector<WorkloadSignature> sigs;
  sigs.reserve(workloads.size());
  for (const auto& w : workloads)
    sigs.push_back(
        WorkloadSignature::from(rs.solo({w, opt.threads, reps}), opt.machine));
  return sigs;
}

void save_signatures(std::ostream& os,
                     const std::vector<WorkloadSignature>& sigs) {
  os << kSignatureHeader << '\n';
  os.precision(17);
  for (const auto& s : sigs) {
    os << s.workload << '\t' << s.threads << '\t' << s.solo_cycles << '\t'
       << s.solo_seconds << '\t' << s.solo_bw_gbs;
    for (double f : s.features()) os << '\t' << f;
    os << '\t' << s.solo_lat_p50 << '\t' << s.solo_lat_p99 << '\t'
       << s.request_count << '\n';
  }
}

std::vector<WorkloadSignature> load_signatures(std::istream& is) {
  std::string header;
  std::getline(is, header);
  if (header != kSignatureHeader)
    throw std::runtime_error{"load_signatures: bad header '" + header + "'"};
  std::vector<WorkloadSignature> sigs;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls{line};
    WorkloadSignature s;
    std::getline(ls, s.workload, '\t');
    s.threads = read_count<unsigned>(ls, line);
    s.solo_cycles = read_count<sim::Cycle>(ls, line);
    ls >> s.solo_seconds >> s.solo_bw_gbs >> s.cpi >> s.ipc >> s.l2_pcp >>
        s.llc_mpki >> s.l2_mpki >> s.ll >> s.bw_fraction >> s.footprint_vs_llc >>
        s.mem_stall_frac >> s.prefetch_share >> s.peak_region_llc_mpki >>
        s.peak_region_l2_pcp >> s.solo_lat_p50 >> s.solo_lat_p99;
    s.request_count = read_count<std::uint64_t>(ls, line);
    if (!ls || !(ls >> std::ws).eof()) malformed(line);
    sigs.push_back(std::move(s));
  }
  return sigs;
}

}  // namespace coperf::predict
