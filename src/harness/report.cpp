#include "harness/report.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

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

/// The paper's derived metrics (Section VI-A), computed from `s`.
void json_metrics(std::ostringstream& os, const sim::CoreStats& s) {
  os << "{\"cpi\": " << json::number(s.cpi())
     << ", \"ipc\": " << json::number(s.ipc())
     << ", \"l2_pcp\": " << json::number(s.l2_pcp())
     << ", \"llc_mpki\": " << json::number(s.llc_mpki())
     << ", \"l2_mpki\": " << json::number(s.l2_mpki())
     << ", \"ll\": " << json::number(s.ll()) << "}";
}

/// Every raw counter, so the document reloads losslessly.
void json_stats(std::ostringstream& os, const sim::CoreStats& s) {
  const char* sep = "{";
  for (const sim::CoreStatField& f : sim::kCoreStatFields) {
    os << sep << '"' << f.name << "\": " << s.*f.member;
    sep = ", ";
  }
  os << "}";
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
  json_metrics(os, r.stats);
  os << ", \"stats\": ";
  json_stats(os, r.stats);
  os << ", \"regions\": [";
  bool first = true;
  for (const auto& reg : r.regions) {
    if (!first) os << ", ";
    first = false;
    os << "{\"region\": " << json::quote(reg.region)
       << ", \"cycles\": " << reg.stats.cycles << ", \"metrics\": ";
    json_metrics(os, reg.stats);
    os << ", \"stats\": ";
    json_stats(os, reg.stats);
    os << "}";
  }
  os << "]}";
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

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error{"report: " + what};
}

sim::CoreStats stats_from(const json::Value& v) {
  sim::CoreStats s;
  for (const sim::CoreStatField& f : sim::kCoreStatFields)
    s.*f.member = v.at(f.name).u64();
  return s;
}

sim::LatencyStats latency_from(const json::Value& v) {
  sim::LatencyStats l;
  l.count = v.at("count").u64();
  l.sum = v.at("sum").u64();
  std::uint64_t total = 0;
  for (const json::Value& entry : v.at("buckets").arr()) {
    const auto& pair = entry.arr();
    if (pair.size() != 2 || pair[0].u64() >= l.buckets.size())
      malformed("latency buckets must be [index, count] pairs");
    l.buckets[pair[0].u64()] += pair[1].u64();
    total += pair[1].u64();
  }
  if (total != l.count) malformed("latency buckets do not sum to count");
  return l;
}

RunResult run_from(const json::Value& v) {
  RunResult r;
  r.workload = v.at("workload").str();
  const std::uint64_t threads = v.at("threads").u64();
  if (threads > std::numeric_limits<unsigned>::max())
    malformed("thread count out of range");
  r.threads = static_cast<unsigned>(threads);
  r.cycles = v.at("cycles").u64();
  r.seconds = v.at("seconds").num();
  r.stats = stats_from(v.at("stats"));
  r.avg_bw_gbs = v.at("avg_bw_gbs").num();
  r.footprint_bytes = v.at("footprint_bytes").u64();
  r.hit_cycle_limit = v.at("hit_cycle_limit").boolean();
  r.latency = latency_from(v.at("latency"));
  for (const json::Value& reg : v.at("regions").arr())
    r.regions.push_back({reg.at("region").str(), stats_from(reg.at("stats"))});
  return r;
}

}  // namespace

GroupResult group_from_json(std::string_view text) {
  const json::Value doc = json::parse(text);
  GroupResult g;
  for (const json::Value& m : doc.at("members").arr())
    g.members.push_back(run_from(m));
  for (const json::Value& n : doc.at("runs_completed").arr())
    g.runs_completed.push_back(n.u64());
  if (g.runs_completed.size() != g.members.size())
    malformed("runs_completed needs one entry per member");
  g.total_avg_bw_gbs = doc.at("total_avg_bw_gbs").num();
  g.finish_cycle = doc.at("finish_cycle").u64();
  g.hit_cycle_limit = doc.at("hit_cycle_limit").boolean();
  return g;
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

std::string to_csv(const CorunMatrix& m) {
  std::ostringstream os;
  os << "foreground,background,normalized_runtime\n";
  for (std::size_t fg = 0; fg < m.size(); ++fg)
    for (std::size_t bg = 0; bg < m.size(); ++bg)
      os << csv_field(m.workloads[fg]) << ',' << csv_field(m.workloads[bg])
         << ',' << Table::fmt(m.at(fg, bg), 4) << '\n';
  return os.str();
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
