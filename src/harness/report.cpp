#include "harness/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace coperf::harness {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c)
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << cells[c];
    os << '\n';
  };
  line(header_);
  std::string rule;
  for (std::size_t c = 0; c < header_.size(); ++c)
    rule += std::string(width[c], '-') + "  ";
  os << rule << '\n';
  for (const auto& row : rows_) line(row);
}

namespace {

/// RFC 4180 field quoting: values holding a comma, quote, or newline
/// are wrapped in double quotes with embedded quotes doubled, so a
/// workload or region name like "G-PR, warm" cannot shift columns.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out{'"'};
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << csv_field(cells[c]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void print_heatmap(std::ostream& os, const CorunMatrix& m) {
  constexpr std::size_t kName = 14;
  os << std::setw(kName) << "fg \\ bg";
  for (const auto& w : m.workloads)
    os << ' ' << std::setw(5) << w.substr(0, 5);
  os << '\n';
  for (std::size_t fg = 0; fg < m.size(); ++fg) {
    os << std::setw(kName) << m.workloads[fg];
    for (std::size_t bg = 0; bg < m.size(); ++bg)
      os << ' ' << std::setw(5) << Table::fmt(m.at(fg, bg), 2);
    os << '\n';
  }
}

void print_scalability(std::ostream& os,
                       const std::vector<ScalabilityResult>& results) {
  if (results.empty()) return;
  std::vector<std::string> header{"workload"};
  for (unsigned t : results.front().threads)
    header.push_back("S(" + std::to_string(t) + ")");
  header.push_back("class");
  Table table{std::move(header)};
  for (const auto& r : results) {
    std::vector<std::string> row{r.workload};
    for (double s : r.speedup) row.push_back(Table::fmt(s, 2));
    row.push_back(to_string(r.cls));
    table.add_row(std::move(row));
  }
  table.print(os);
}

namespace report {

namespace {

void json_metrics(std::ostringstream& os, const perf::Metrics& m) {
  os << "{\"cpi\": " << json::number(m.cpi)
     << ", \"ipc\": " << json::number(m.ipc)
     << ", \"l2_pcp\": " << json::number(m.l2_pcp)
     << ", \"llc_mpki\": " << json::number(m.llc_mpki)
     << ", \"l2_mpki\": " << json::number(m.l2_mpki)
     << ", \"ll\": " << json::number(m.ll) << "}";
}

/// Latency object: counts plus interpolated percentiles in cycles, and
/// the sparse non-zero buckets so the distribution round-trips. Batch
/// workloads emit {"count": 0, ...} -- present but empty, so column
/// shape never depends on the workload.
void json_latency(std::ostringstream& os, const sim::LatencyStats& l) {
  os << "{\"count\": " << l.count << ", \"sum\": " << l.sum
     << ", \"p50\": " << json::number(l.quantile(0.50))
     << ", \"p95\": " << json::number(l.quantile(0.95))
     << ", \"p99\": " << json::number(l.quantile(0.99)) << ", \"buckets\": [";
  bool first = true;
  for (unsigned b = 0; b < l.buckets.size(); ++b) {
    if (l.buckets[b] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "[" << b << ", " << l.buckets[b] << "]";
  }
  os << "]}";
}

void json_run(std::ostringstream& os, const RunResult& r) {
  os << "{\"workload\": " << json::quote(r.workload)
     << ", \"threads\": " << r.threads << ", \"cycles\": " << r.cycles
     << ", \"seconds\": " << json::number(r.seconds)
     << ", \"instructions\": " << r.stats.instructions
     << ", \"avg_bw_gbs\": " << json::number(r.avg_bw_gbs)
     << ", \"footprint_bytes\": " << r.footprint_bytes
     << ", \"hit_cycle_limit\": " << (r.hit_cycle_limit ? "true" : "false")
     << ", \"latency\": ";
  json_latency(os, r.latency);
  os << ", \"metrics\": ";
  json_metrics(os, r.metrics);
  os << ", \"regions\": [";
  bool first = true;
  for (const auto& reg : r.regions) {
    if (!first) os << ", ";
    first = false;
    os << "{\"region\": " << json::quote(reg.region)
       << ", \"cycles\": " << reg.stats.cycles << ", \"metrics\": ";
    json_metrics(os, reg.metrics);
    os << "}";
  }
  os << "]}";
}

constexpr const char* kRunCsvHeader =
    "workload,threads,cycles,seconds,instructions,avg_bw_gbs,"
    "footprint_bytes,hit_cycle_limit,cpi,ipc,llc_mpki,l2_pcp,ll,"
    "req_count,lat_p50,lat_p95,lat_p99";

void csv_run_row(std::ostringstream& os, const RunResult& r) {
  os << csv_field(r.workload) << ',' << r.threads << ',';
  // A cycle-limit-flagged run never finished: its runtime is
  // undefined, not the cycle count the limit happened to cut it at.
  // Progress counters (instructions, bandwidth) remain real.
  if (r.hit_cycle_limit)
    os << "nan,nan,";
  else
    os << r.cycles << ',' << json::number(r.seconds) << ',';
  os << r.stats.instructions << ',' << json::number(r.avg_bw_gbs) << ','
     << r.footprint_bytes << ',' << (r.hit_cycle_limit ? 1 : 0) << ','
     << json::number(r.metrics.cpi) << ',' << json::number(r.metrics.ipc)
     << ',' << json::number(r.metrics.llc_mpki) << ','
     << json::number(r.metrics.l2_pcp) << ',' << json::number(r.metrics.ll)
     << ',' << r.latency.count << ',';
  // Batch workloads have no requests: the percentile columns stay
  // empty (not nan -- that marks cycle-limit-flagged members).
  if (r.latency.empty())
    os << ",,";
  else
    os << json::number(r.latency.quantile(0.50)) << ','
       << json::number(r.latency.quantile(0.95)) << ','
       << json::number(r.latency.quantile(0.99));
  os << '\n';
}

}  // namespace

std::string to_json(const RunResult& r) {
  std::ostringstream os;
  json_run(os, r);
  return os.str();
}

std::string to_json(const GroupResult& g) {
  std::ostringstream os;
  os << "{\"members\": [";
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    if (i) os << ", ";
    json_run(os, g.members[i]);
  }
  os << "], \"runs_completed\": [";
  for (std::size_t i = 0; i < g.runs_completed.size(); ++i) {
    if (i) os << ", ";
    os << g.runs_completed[i];
  }
  os << "], \"total_avg_bw_gbs\": " << json::number(g.total_avg_bw_gbs)
     << ", \"finish_cycle\": " << g.finish_cycle
     << ", \"hit_cycle_limit\": " << (g.hit_cycle_limit ? "true" : "false")
     << "}";
  return os.str();
}

std::string to_json(const CorunMatrix& m) {
  std::ostringstream os;
  os << "{\"workloads\": [";
  for (std::size_t i = 0; i < m.workloads.size(); ++i) {
    if (i) os << ", ";
    os << json::quote(m.workloads[i]);
  }
  os << "], \"solo_cycles\": [";
  for (std::size_t i = 0; i < m.solo_cycles.size(); ++i) {
    if (i) os << ", ";
    os << m.solo_cycles[i];
  }
  os << "], \"normalized\": [";
  for (std::size_t fg = 0; fg < m.size(); ++fg) {
    if (fg) os << ", ";
    os << "[";
    for (std::size_t bg = 0; bg < m.size(); ++bg) {
      if (bg) os << ", ";
      os << json::number(m.normalized[fg][bg]);
    }
    os << "]";
  }
  const auto counts = m.count_classes();
  os << "], \"classes\": {\"harmony\": " << counts.harmony
     << ", \"victim_offender\": " << counts.victim_offender
     << ", \"both_victim\": " << counts.both_victim << "}}";
  return os.str();
}

std::string to_json(const ScalabilityResult& s) {
  std::ostringstream os;
  os << "{\"workload\": " << json::quote(s.workload)
     << ", \"rate_mode\": " << (s.rate_mode ? "true" : "false")
     << ", \"class\": " << json::quote(to_string(s.cls))
     << ", \"threads\": [";
  for (std::size_t i = 0; i < s.threads.size(); ++i) {
    if (i) os << ", ";
    os << s.threads[i];
  }
  os << "], \"cycles\": [";
  for (std::size_t i = 0; i < s.cycles.size(); ++i) {
    if (i) os << ", ";
    os << s.cycles[i];
  }
  os << "], \"speedup\": [";
  for (std::size_t i = 0; i < s.speedup.size(); ++i) {
    if (i) os << ", ";
    os << json::number(s.speedup[i]);
  }
  os << "], \"bw_gbs\": [";
  for (std::size_t i = 0; i < s.bw_gbs.size(); ++i) {
    if (i) os << ", ";
    os << json::number(s.bw_gbs[i]);
  }
  os << "]}";
  return os.str();
}

std::string to_json(const std::vector<ScalabilityResult>& s) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) os << ", ";
    os << to_json(s[i]);
  }
  os << "]";
  return os.str();
}

std::string to_json(const PrefetchSensitivity& p) {
  std::ostringstream os;
  os << "{\"workload\": " << json::quote(p.workload)
     << ", \"cycles_on\": " << p.cycles_on
     << ", \"cycles_off\": " << p.cycles_off
     << ", \"speedup_ratio\": " << json::number(p.speedup_ratio)
     << ", \"bw_on_gbs\": " << json::number(p.bw_on_gbs)
     << ", \"bw_off_gbs\": " << json::number(p.bw_off_gbs) << "}";
  return os.str();
}

std::string to_json(const std::vector<PrefetchSensitivity>& p) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i) os << ", ";
    os << to_json(p[i]);
  }
  os << "]";
  return os.str();
}

std::string to_csv(const RunResult& r) {
  std::ostringstream os;
  os << kRunCsvHeader << '\n';
  csv_run_row(os, r);
  return os.str();
}

std::string to_csv(const GroupResult& g) {
  std::ostringstream os;
  os << "member," << kRunCsvHeader << ",runs_completed\n";
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    std::ostringstream row;
    csv_run_row(row, g.members[i]);
    std::string line = row.str();
    line.pop_back();  // the trailing newline; runs_completed goes last
    os << i << ',' << line << ',' << g.runs_completed[i] << '\n';
  }
  return os.str();
}

std::string to_csv(const CorunMatrix& m) {
  std::ostringstream os;
  os << "foreground,background,normalized_runtime\n";
  for (std::size_t fg = 0; fg < m.size(); ++fg)
    for (std::size_t bg = 0; bg < m.size(); ++bg)
      os << csv_field(m.workloads[fg]) << ',' << csv_field(m.workloads[bg])
         << ',' << Table::fmt(m.at(fg, bg), 4) << '\n';
  return os.str();
}

std::string to_csv(const ScalabilityResult& s) {
  return to_csv(std::vector<ScalabilityResult>{s});
}

std::string to_csv(const std::vector<ScalabilityResult>& s) {
  std::ostringstream os;
  os << "workload,threads,cycles,speedup,bw_gbs,class\n";
  for (const auto& r : s)
    for (std::size_t i = 0; i < r.threads.size(); ++i)
      os << csv_field(r.workload) << ',' << r.threads[i] << ',' << r.cycles[i]
         << ',' << json::number(r.speedup[i]) << ','
         << json::number(r.bw_gbs[i]) << ',' << to_string(r.cls) << '\n';
  return os.str();
}

std::string to_csv(const PrefetchSensitivity& p) {
  return to_csv(std::vector<PrefetchSensitivity>{p});
}

std::string to_csv(const std::vector<PrefetchSensitivity>& p) {
  std::ostringstream os;
  os << "workload,cycles_on,cycles_off,speedup_ratio,bw_on_gbs,bw_off_gbs\n";
  for (const auto& s : p)
    os << csv_field(s.workload) << ',' << s.cycles_on << ',' << s.cycles_off
       << ',' << json::number(s.speedup_ratio) << ','
       << json::number(s.bw_on_gbs) << ',' << json::number(s.bw_off_gbs)
       << '\n';
  return os.str();
}

}  // namespace report

}  // namespace coperf::harness
