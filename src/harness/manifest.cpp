#include "harness/manifest.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "harness/runcache.hpp"
#include "perf/metrics.hpp"
#include "util/json.hpp"

namespace coperf::harness {

namespace {

void write_cache(std::ostream& os, const sim::CacheConfig& c) {
  os << '[' << c.size_bytes << ", " << c.assoc << ", " << c.latency_cycles
     << ", " << c.line_bytes << ']';
}

void write_machine(std::ostream& os, const sim::MachineConfig& m) {
  os << "{\"num_cores\": " << m.num_cores
     << ", \"freq_ghz\": " << json::number(m.freq_ghz) << ", \"l1d\": ";
  write_cache(os, m.l1d);
  os << ", \"l2\": ";
  write_cache(os, m.l2);
  os << ", \"l3\": ";
  write_cache(os, m.l3);
  os << ", \"l3_inclusive\": " << (m.l3_inclusive ? "true" : "false")
     << ", \"peak_bw_gbs\": " << json::number(m.peak_bw_gbs)
     << ", \"per_core_bw_gbs\": " << json::number(m.per_core_bw_gbs)
     << ", \"dram_latency_cycles\": " << m.dram_latency_cycles
     << ", \"mshr_per_core\": " << m.mshr_per_core
     << ", \"store_buffer\": " << m.store_buffer
     << ", \"rob_instructions\": " << m.rob_instructions
     << ", \"quantum_cycles\": " << m.quantum_cycles << ", \"prefetch\": ["
     << (m.prefetch.l2_stream ? "true" : "false") << ", "
     << (m.prefetch.l2_adjacent ? "true" : "false") << ", "
     << (m.prefetch.l1_next_line ? "true" : "false") << ", "
     << (m.prefetch.l1_ip_stride ? "true" : "false")
     << "], \"streamer_degree\": " << m.streamer_degree
     << ", \"streamer_train\": " << m.streamer_train
     << ", \"scale\": " << m.scale << '}';
}

const char* size_name(wl::SizeClass s) {
  switch (s) {
    case wl::SizeClass::Tiny: return "Tiny";
    case wl::SizeClass::Small: return "Small";
    case wl::SizeClass::Native: return "Native";
  }
  throw std::logic_error{"manifest: unknown size class"};
}

wl::SizeClass parse_size(const std::string& s) {
  if (s == "Tiny") return wl::SizeClass::Tiny;
  if (s == "Small") return wl::SizeClass::Small;
  if (s == "Native") return wl::SizeClass::Native;
  throw std::runtime_error{"manifest: unknown size class '" + s + "'"};
}

void write_options(std::ostream& os, const RunOptions& o) {
  os << "{\"machine\": ";
  write_machine(os, o.machine);
  os << ", \"size\": \"" << size_name(o.size) << "\", \"threads\": "
     << o.threads << ", \"bg_threads\": " << o.bg_threads << ", \"seed\": "
     << o.seed << ", \"sample_window\": " << o.sample_window
     << ", \"cycle_limit\": " << o.cycle_limit << '}';
}

void write_stats(std::ostream& os, const sim::CoreStats& s) {
  os << '[' << s.cycles << ", " << s.instructions << ", " << s.loads << ", "
     << s.stores << ", " << s.l1d_hits << ", " << s.l1d_misses << ", "
     << s.l2_hits << ", " << s.l2_misses << ", " << s.l3_hits << ", "
     << s.l3_misses << ", " << s.bytes_from_mem << ", "
     << s.bytes_written_back << ", " << s.stall_cycles_mem << ", "
     << s.pending_l2_cycles << ", " << s.barrier_wait_cycles << ", "
     << s.prefetches_issued << ']';
}

void write_latency(std::ostream& os, const sim::LatencyStats& l) {
  os << "{\"count\": " << l.count << ", \"sum\": " << l.sum
     << ", \"buckets\": [";
  bool first = true;
  for (std::size_t b = 0; b < l.buckets.size(); ++b) {
    if (l.buckets[b] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << '[' << b << ", " << l.buckets[b] << ']';
  }
  os << "]}";
}

void write_run(std::ostream& os, const RunResult& r) {
  os << "{\"workload\": " << json::quote(r.workload)
     << ", \"threads\": " << r.threads << ", \"cycles\": " << r.cycles
     << ", \"seconds\": " << json::number(r.seconds)
     << ", \"avg_bw_gbs\": " << json::number(r.avg_bw_gbs)
     << ", \"footprint_bytes\": " << r.footprint_bytes
     << ", \"hit_cycle_limit\": " << (r.hit_cycle_limit ? "true" : "false")
     << ", \"stats\": ";
  write_stats(os, r.stats);
  os << ", \"latency\": ";
  write_latency(os, r.latency);
  os << '}';
}

void write_group_result(std::ostream& os, const GroupResult& g) {
  os << "{\"members\": [";
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    if (i != 0) os << ", ";
    write_run(os, g.members[i]);
  }
  os << "], \"runs_completed\": [";
  for (std::size_t i = 0; i < g.runs_completed.size(); ++i) {
    if (i != 0) os << ", ";
    os << g.runs_completed[i];
  }
  os << "], \"total_avg_bw_gbs\": " << json::number(g.total_avg_bw_gbs)
     << ", \"finish_cycle\": " << g.finish_cycle << ", \"hit_cycle_limit\": "
     << (g.hit_cycle_limit ? "true" : "false") << '}';
}

// --- deserialization -------------------------------------------------

sim::CacheConfig parse_cache(const json::Value& v) {
  const auto& a = v.arr();
  if (a.size() != 4)
    throw std::runtime_error{"manifest: cache config needs 4 entries"};
  sim::CacheConfig c;
  c.size_bytes = a[0].u64();
  c.assoc = static_cast<std::uint32_t>(a[1].u64());
  c.latency_cycles = static_cast<std::uint32_t>(a[2].u64());
  c.line_bytes = static_cast<std::uint32_t>(a[3].u64());
  return c;
}

sim::MachineConfig parse_machine(const json::Value& v) {
  sim::MachineConfig m;
  m.num_cores = static_cast<std::uint32_t>(v.at("num_cores").u64());
  m.freq_ghz = v.at("freq_ghz").num();
  m.l1d = parse_cache(v.at("l1d"));
  m.l2 = parse_cache(v.at("l2"));
  m.l3 = parse_cache(v.at("l3"));
  m.l3_inclusive = v.at("l3_inclusive").boolean();
  m.peak_bw_gbs = v.at("peak_bw_gbs").num();
  m.per_core_bw_gbs = v.at("per_core_bw_gbs").num();
  m.dram_latency_cycles =
      static_cast<std::uint32_t>(v.at("dram_latency_cycles").u64());
  m.mshr_per_core = static_cast<std::uint32_t>(v.at("mshr_per_core").u64());
  m.store_buffer = static_cast<std::uint32_t>(v.at("store_buffer").u64());
  m.rob_instructions =
      static_cast<std::uint32_t>(v.at("rob_instructions").u64());
  m.quantum_cycles = static_cast<std::uint32_t>(v.at("quantum_cycles").u64());
  const auto& pf = v.at("prefetch").arr();
  if (pf.size() != 4)
    throw std::runtime_error{"manifest: prefetch mask needs 4 entries"};
  m.prefetch = {pf[0].boolean(), pf[1].boolean(), pf[2].boolean(),
                pf[3].boolean()};
  m.streamer_degree = static_cast<std::uint32_t>(v.at("streamer_degree").u64());
  m.streamer_train = static_cast<std::uint32_t>(v.at("streamer_train").u64());
  m.scale = static_cast<std::uint32_t>(v.at("scale").u64());
  return m;
}

RunOptions parse_options(const json::Value& v) {
  RunOptions o;
  o.machine = parse_machine(v.at("machine"));
  o.size = parse_size(v.at("size").str());
  o.threads = static_cast<unsigned>(v.at("threads").u64());
  o.bg_threads = static_cast<unsigned>(v.at("bg_threads").u64());
  o.seed = v.at("seed").u64();
  o.sample_window = v.at("sample_window").u64();
  o.cycle_limit = v.at("cycle_limit").u64();
  return o;
}

sim::CoreStats parse_stats(const json::Value& v) {
  const auto& a = v.arr();
  if (a.size() != 16)
    throw std::runtime_error{"manifest: stats array needs 16 counters"};
  sim::CoreStats s;
  s.cycles = a[0].u64();
  s.instructions = a[1].u64();
  s.loads = a[2].u64();
  s.stores = a[3].u64();
  s.l1d_hits = a[4].u64();
  s.l1d_misses = a[5].u64();
  s.l2_hits = a[6].u64();
  s.l2_misses = a[7].u64();
  s.l3_hits = a[8].u64();
  s.l3_misses = a[9].u64();
  s.bytes_from_mem = a[10].u64();
  s.bytes_written_back = a[11].u64();
  s.stall_cycles_mem = a[12].u64();
  s.pending_l2_cycles = a[13].u64();
  s.barrier_wait_cycles = a[14].u64();
  s.prefetches_issued = a[15].u64();
  return s;
}

sim::LatencyStats parse_latency(const json::Value& v) {
  sim::LatencyStats l;
  l.count = v.at("count").u64();
  l.sum = v.at("sum").u64();
  std::uint64_t total = 0;
  for (const json::Value& pair : v.at("buckets").arr()) {
    const auto& p = pair.arr();
    if (p.size() != 2)
      throw std::runtime_error{"manifest: latency bucket needs [index, count]"};
    const std::uint64_t b = p[0].u64();
    if (b >= l.buckets.size())
      throw std::runtime_error{"manifest: latency bucket index out of range"};
    l.buckets[b] = p[1].u64();
    total += p[1].u64();
  }
  if (total != l.count)
    throw std::runtime_error{"manifest: latency bucket total != count"};
  return l;
}

RunResult parse_run(const json::Value& v) {
  RunResult r;
  r.workload = v.at("workload").str();
  r.threads = static_cast<unsigned>(v.at("threads").u64());
  r.cycles = v.at("cycles").u64();
  r.seconds = v.at("seconds").num();
  r.avg_bw_gbs = v.at("avg_bw_gbs").num();
  r.footprint_bytes = static_cast<std::size_t>(v.at("footprint_bytes").u64());
  r.hit_cycle_limit = v.at("hit_cycle_limit").boolean();
  r.stats = parse_stats(v.at("stats"));
  // Derived metrics are a pure function of the counters; regions are
  // the documented lossy spot (empty on load).
  r.metrics = perf::Metrics::from(r.stats);
  r.latency = parse_latency(v.at("latency"));
  return r;
}

GroupResult parse_group_result(const json::Value& v) {
  GroupResult g;
  for (const json::Value& m : v.at("members").arr())
    g.members.push_back(parse_run(m));
  for (const json::Value& n : v.at("runs_completed").arr())
    g.runs_completed.push_back(n.u64());
  g.total_avg_bw_gbs = v.at("total_avg_bw_gbs").num();
  g.finish_cycle = v.at("finish_cycle").u64();
  g.hit_cycle_limit = v.at("hit_cycle_limit").boolean();
  return g;
}

GroupSpec parse_members(const json::Value& v) {
  GroupSpec spec;
  for (const json::Value& m : v.arr()) {
    MemberSpec mem;
    mem.workload = m.at("workload").str();
    mem.threads = static_cast<unsigned>(m.at("threads").u64());
    const json::Value& size = m.at("size");
    if (size.kind != json::Value::Kind::Null) mem.size = parse_size(size.str());
    mem.restart_until_done = m.at("restart").boolean();
    spec.members.push_back(std::move(mem));
  }
  return spec;
}

}  // namespace

void save_manifest(std::ostream& os, const ExperimentPlan& plan,
                   const ResultSet& rs) {
  os << "{\"coperf_manifest\": " << kManifestVersion << ",\n\"base\": ";
  write_options(os, plan.options());
  os << ",\n\"trials\": [";
  bool first = true;
  for (const Trial& t : plan.trials()) {
    os << (first ? "\n" : ",\n") << "{\"key\": " << json::quote(t.key)
       << ",\n \"members\": [";
    first = false;
    for (std::size_t i = 0; i < t.group.members.size(); ++i) {
      const MemberSpec& m = t.group.members[i];
      if (i != 0) os << ", ";
      os << "{\"workload\": " << json::quote(m.workload)
         << ", \"threads\": " << m.threads << ", \"size\": ";
      if (m.size)
        os << '"' << size_name(*m.size) << '"';
      else
        os << "null";
      os << ", \"restart\": " << (m.restart_until_done ? "true" : "false")
         << '}';
    }
    os << "],\n \"options\": ";
    write_options(os, t.opt);
    os << ",\n \"result\": ";
    write_group_result(os, rs.at(t.key));  // throws if rs is not this plan's
    os << '}';
  }
  os << "\n]}\n";
}

std::string manifest_json(const ExperimentPlan& plan, const ResultSet& rs) {
  std::ostringstream os;
  save_manifest(os, plan, rs);
  return os.str();
}

ResultSet load_manifest(std::istream& is) {
  std::ostringstream text;
  text << is.rdbuf();
  const json::Value doc = json::parse(text.str());
  const std::uint64_t version = doc.at("coperf_manifest").u64();
  if (version != static_cast<std::uint64_t>(kManifestVersion))
    throw std::runtime_error{"manifest: version " + std::to_string(version) +
                             " unsupported (expected " +
                             std::to_string(kManifestVersion) + ")"};
  ResultSet rs;
  rs.base_ = parse_options(doc.at("base"));
  for (const json::Value& t : doc.at("trials").arr()) {
    const std::string& key = t.at("key").str();
    const GroupSpec spec = parse_members(t.at("members"));
    const RunOptions opt = parse_options(t.at("options"));
    // Integrity: the stored key must be the key the deserialized spec
    // still content-addresses to. A mismatch means the manifest was
    // edited or the key schema changed -- results would silently be
    // unaddressable, so fail loudly instead.
    if (RunCache::group_key(spec, opt) != key)
      throw std::runtime_error{
          "manifest: trial key does not match its spec (corrupted or "
          "incompatible manifest): " +
          key};
    rs.results_.emplace(key, parse_group_result(t.at("result")));
  }
  return rs;
}

}  // namespace coperf::harness
