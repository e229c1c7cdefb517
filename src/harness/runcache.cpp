#include "harness/runcache.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "perf/metrics.hpp"
#include "util/json.hpp"

namespace coperf::harness {

namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void put_stats(std::ostream& os, const char* tag, const sim::CoreStats& s) {
  os << tag << ' ' << s.cycles << ' ' << s.instructions << ' ' << s.loads
     << ' ' << s.stores << ' ' << s.l1d_hits << ' ' << s.l1d_misses << ' '
     << s.l2_hits << ' ' << s.l2_misses << ' ' << s.l3_hits << ' '
     << s.l3_misses << ' ' << s.bytes_from_mem << ' ' << s.bytes_written_back
     << ' ' << s.stall_cycles_mem << ' ' << s.pending_l2_cycles << ' '
     << s.barrier_wait_cycles << ' ' << s.prefetches_issued << '\n';
}

bool get_stats(std::istream& is, sim::CoreStats& s) {
  return static_cast<bool>(
      is >> s.cycles >> s.instructions >> s.loads >> s.stores >> s.l1d_hits >>
      s.l1d_misses >> s.l2_hits >> s.l2_misses >> s.l3_hits >> s.l3_misses >>
      s.bytes_from_mem >> s.bytes_written_back >> s.stall_cycles_mem >>
      s.pending_l2_cycles >> s.barrier_wait_cycles >> s.prefetches_issued);
}

void put_run(std::ostream& os, const RunResult& r) {
  os << "workload " << r.workload << '\n'
     << "threads " << r.threads << '\n'
     << "cycles " << r.cycles << '\n'
     << "seconds " << json::number(r.seconds) << '\n';
  put_stats(os, "stats", r.stats);
  // Sparse latency line: count, sum, then (bucket, count) pairs.
  os << "latency " << r.latency.count << ' ' << r.latency.sum;
  for (std::size_t b = 0; b < r.latency.buckets.size(); ++b)
    if (r.latency.buckets[b] != 0)
      os << ' ' << b << ' ' << r.latency.buckets[b];
  os << '\n';
  os << "avg_bw " << json::number(r.avg_bw_gbs) << '\n'
     << "footprint " << r.footprint_bytes << '\n'
     << "hit_limit " << (r.hit_cycle_limit ? 1 : 0) << '\n'
     << "regions " << r.regions.size() << '\n';
  for (const auto& reg : r.regions) {
    put_stats(os, "region_stats", reg.stats);
    // The name goes last on its own line: region ids may contain spaces.
    os << "region_name " << reg.region << '\n';
  }
}

bool get_run(std::istream& is, RunResult& r) {
  std::string tag;
  int hit_limit = 0;
  std::size_t nregions = 0;
  if (!(is >> tag >> r.workload) || tag != "workload") return false;
  if (!(is >> tag >> r.threads) || tag != "threads") return false;
  if (!(is >> tag >> r.cycles) || tag != "cycles") return false;
  if (!(is >> tag >> r.seconds) || tag != "seconds") return false;
  if (!(is >> tag) || tag != "stats" || !get_stats(is, r.stats)) return false;
  if (!(is >> tag >> r.latency.count >> r.latency.sum) || tag != "latency")
    return false;
  {
    // The rest of the latency line is sparse (bucket, count) pairs.
    r.latency.buckets.fill(0);
    std::string rest;
    if (!std::getline(is, rest)) return false;
    std::istringstream pairs{rest};
    std::size_t b = 0;
    std::uint64_t n = 0;
    std::uint64_t total = 0;
    while (pairs >> b >> n) {
      if (b >= r.latency.buckets.size()) return false;
      r.latency.buckets[b] = n;
      total += n;
    }
    if (total != r.latency.count) return false;
  }
  if (!(is >> tag >> r.avg_bw_gbs) || tag != "avg_bw") return false;
  if (!(is >> tag >> r.footprint_bytes) || tag != "footprint") return false;
  if (!(is >> tag >> hit_limit) || tag != "hit_limit") return false;
  if (!(is >> tag >> nregions) || tag != "regions") return false;
  r.hit_cycle_limit = hit_limit != 0;
  r.metrics = perf::Metrics::from(r.stats);
  r.regions.clear();
  r.regions.reserve(nregions);
  for (std::size_t i = 0; i < nregions; ++i) {
    perf::RegionProfile reg;
    if (!(is >> tag) || tag != "region_stats" || !get_stats(is, reg.stats))
      return false;
    if (!(is >> tag) || tag != "region_name") return false;
    is.ignore(1);  // the separating space
    if (!std::getline(is, reg.region)) return false;
    reg.metrics = perf::Metrics::from(reg.stats);
    r.regions.push_back(std::move(reg));
  }
  return true;
}

void put_group(std::ostream& os, const GroupResult& g) {
  os << "members " << g.members.size() << '\n';
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    put_run(os, g.members[i]);
    os << "runs_completed " << g.runs_completed[i] << '\n';
  }
  os << "total_avg_bw " << json::number(g.total_avg_bw_gbs) << '\n'
     << "finish_cycle " << g.finish_cycle << '\n'
     << "group_hit_limit " << (g.hit_cycle_limit ? 1 : 0) << '\n';
}

bool get_group(std::istream& is, GroupResult& g) {
  std::string tag;
  std::size_t nmembers = 0;
  int hit_limit = 0;
  if (!(is >> tag >> nmembers) || tag != "members") return false;
  g.members.clear();
  g.runs_completed.clear();
  g.members.reserve(nmembers);
  g.runs_completed.resize(nmembers, 0);
  for (std::size_t i = 0; i < nmembers; ++i) {
    RunResult r;
    if (!get_run(is, r)) return false;
    if (!(is >> tag >> g.runs_completed[i]) || tag != "runs_completed")
      return false;
    g.members.push_back(std::move(r));
  }
  if (!(is >> tag >> g.total_avg_bw_gbs) || tag != "total_avg_bw") return false;
  if (!(is >> tag >> g.finish_cycle) || tag != "finish_cycle") return false;
  if (!(is >> tag >> hit_limit) || tag != "group_hit_limit") return false;
  g.hit_cycle_limit = hit_limit != 0;
  return true;
}

// v4: RunResult gained the per-request latency line. The header bump
// quarantines every v3 entry through the existing wrong-header path,
// so a stale cache re-simulates instead of parsing garbage.
constexpr const char* kDiskHeader = "coperf-run-cache v4";

std::string checksum_line(std::string_view payload) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "sum %016" PRIx64, fnv1a(payload));
  return buf;
}

}  // namespace

struct RunCache::Impl {
  mutable std::mutex mu;
  std::unordered_map<std::string, GroupResult> groups;
  Stats stats;
  // Process-wide mirrors of `stats` in the observability registry --
  // the uniform surface --metrics and the CI warm-path assertion read.
  // Unlike stats they are never reset by reset_stats(): they count the
  // whole process, like every other registry metric.
  obs::Counter& hits_ctr = obs::Registry::instance().counter("runcache.hits");
  obs::Counter& disk_hits_ctr =
      obs::Registry::instance().counter("runcache.disk_hits");
  obs::Counter& misses_ctr =
      obs::Registry::instance().counter("runcache.misses");
  obs::Counter& stores_ctr =
      obs::Registry::instance().counter("runcache.stores");
  obs::Counter& corrupt_ctr =
      obs::Registry::instance().counter("runcache.corrupt");

  std::filesystem::path entry_path(const std::string& dir,
                                   const std::string& key) const {
    char name[32];
    std::snprintf(name, sizeof name, "%016" PRIx64 ".run", fnv1a(key));
    return std::filesystem::path{dir} / name;
  }

  /// Opens a disk entry and verifies header + embedded key (collision
  /// safety); leaves the stream positioned at the payload.
  bool disk_open(const std::string& dir, const std::string& key,
                 std::ifstream& in) const {
    if (dir.empty()) return false;
    in.open(entry_path(dir, key));
    if (!in) return false;
    std::string line;
    if (!std::getline(in, line) || line != kDiskHeader) return false;
    if (!std::getline(in, line) || line != "key " + key) return false;
    return true;
  }

  /// Moves a failed-validation entry aside (<entry>.corrupt) so the
  /// next run is a clean miss instead of re-tripping on the same bytes,
  /// and keeps the evidence for a postmortem.
  void quarantine(const std::filesystem::path& path, std::uint64_t* corrupt) {
    std::error_code ec;
    std::filesystem::rename(path, path.string() + ".corrupt", ec);
    if (ec) std::filesystem::remove(path, ec);
    ++*corrupt;
    corrupt_ctr.add();
  }

  bool disk_load(const std::string& dir, const std::string& key,
                 GroupResult* out, std::uint64_t* corrupt) {
    if (dir.empty()) return false;
    const auto path = entry_path(dir, key);
    std::ifstream in{path};
    if (!in) return false;
    std::string line;
    // A wrong header is corruption (or a stale format): quarantine. A
    // wrong key is a hash collision with some OTHER valid entry --
    // plain miss, leave it alone.
    if (!std::getline(in, line) || line != kDiskHeader) {
      quarantine(path, corrupt);
      return false;
    }
    if (!std::getline(in, line) || line != "key " + key) return false;
    std::string sum;
    if (!std::getline(in, sum) || sum.rfind("sum ", 0) != 0) {
      quarantine(path, corrupt);
      return false;
    }
    std::ostringstream rest;
    rest << in.rdbuf();
    const std::string payload = rest.str();
    std::istringstream body{payload};
    if (sum != checksum_line(payload) || !get_group(body, *out)) {
      quarantine(path, corrupt);
      return false;
    }
    return true;
  }

  void disk_store(const std::string& dir, const std::string& key,
                  const GroupResult& v) {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const auto path = entry_path(dir, key);
    const auto tmp = path.string() + ".tmp" + std::to_string(::getpid());
    std::ostringstream body;
    put_group(body, v);
    const std::string payload = body.str();
    {
      std::ofstream out{tmp};
      if (!out) return;
      out << kDiskHeader << "\nkey " << key << '\n'
          << checksum_line(payload) << '\n'
          << payload;
      if (!out) {
        std::filesystem::remove(tmp, ec);
        return;
      }
    }
    std::filesystem::rename(tmp, path, ec);  // atomic publish
    if (ec) std::filesystem::remove(tmp, ec);
  }
};

RunCache::RunCache() : impl_(new Impl) {
  if (const char* off = std::getenv("COPERF_RUN_CACHE");
      off != nullptr && std::string_view{off} == "0")
    enabled_ = false;
  if (const char* dir = std::getenv("COPERF_RUN_CACHE_DIR");
      dir != nullptr && *dir != '\0')
    disk_dir_ = dir;
}

RunCache& RunCache::instance() {
  static RunCache cache;
  return cache;
}

RunCache::Stats RunCache::stats() const {
  std::lock_guard lock{impl_->mu};
  return impl_->stats;
}

void RunCache::reset_stats() {
  std::lock_guard lock{impl_->mu};
  impl_->stats = Stats{};
}

void RunCache::clear() {
  std::lock_guard lock{impl_->mu};
  impl_->groups.clear();
}

void RunCache::clear_disk() {
  std::lock_guard lock{impl_->mu};
  if (disk_dir_.empty()) return;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator{disk_dir_, ec}) {
    if (e.path().extension() == ".run" || e.path().extension() == ".corrupt")
      std::filesystem::remove(e.path(), ec);
  }
}

void RunCache::set_disk_dir(std::string dir) {
  std::lock_guard lock{impl_->mu};
  disk_dir_ = std::move(dir);
}

bool RunCache::lookup(const std::string& key, GroupResult* out) {
  std::lock_guard lock{impl_->mu};
  if (auto it = impl_->groups.find(key); it != impl_->groups.end()) {
    ++impl_->stats.hits;
    impl_->hits_ctr.add();
    *out = it->second;
    return true;
  }
  if (impl_->disk_load(disk_dir_, key, out, &impl_->stats.corrupt)) {
    ++impl_->stats.disk_hits;
    impl_->disk_hits_ctr.add();
    impl_->groups.emplace(key, *out);
    return true;
  }
  ++impl_->stats.misses;
  impl_->misses_ctr.add();
  return false;
}

void RunCache::store(const std::string& key, const GroupResult& r) {
  std::lock_guard lock{impl_->mu};
  impl_->groups.emplace(key, r);
  impl_->stores_ctr.add();
  impl_->disk_store(disk_dir_, key, r);
}

bool RunCache::contains(const std::string& key) const {
  std::lock_guard lock{impl_->mu};
  if (impl_->groups.count(key) != 0) return true;
  std::ifstream in;
  return impl_->disk_open(disk_dir_, key, in);
}

std::string RunCache::machine_fingerprint(const sim::MachineConfig& m) {
  std::ostringstream os;
  const auto cache = [&](const sim::CacheConfig& c) {
    os << c.size_bytes << ',' << c.assoc << ',' << c.latency_cycles << ','
       << c.line_bytes << ';';
  };
  os << "cores=" << m.num_cores << ";freq=" << json::number(m.freq_ghz)
     << ";l1=";
  cache(m.l1d);
  os << "l2=";
  cache(m.l2);
  os << "l3=";
  cache(m.l3);
  os << "incl=" << m.l3_inclusive << ";bw=" << json::number(m.peak_bw_gbs)
     << ";corebw=" << json::number(m.per_core_bw_gbs)
     << ";dram=" << m.dram_latency_cycles << ";mshr=" << m.mshr_per_core
     << ";sb=" << m.store_buffer << ";rob=" << m.rob_instructions
     << ";q=" << m.quantum_cycles << ";pf=" << m.prefetch.l2_stream
     << m.prefetch.l2_adjacent << m.prefetch.l1_next_line
     << m.prefetch.l1_ip_stride << ";deg=" << m.streamer_degree
     << ";train=" << m.streamer_train << ";scale=" << m.scale;
  return os.str();
}

std::string RunCache::group_key(const GroupSpec& spec, const RunOptions& opt) {
  std::ostringstream os;
  os << "group";
  for (const MemberSpec& m : spec.members) {
    os << '|' << m.workload << ':' << m.threads << ":s"
       << static_cast<int>(m.size.value_or(opt.size)) << ':'
       << (m.restart_until_done ? 'r' : 'f');
  }
  os << "|seed=" << opt.seed << "|sw=" << opt.sample_window
     << "|cl=" << opt.cycle_limit << "|mach{" << machine_fingerprint(opt.machine)
     << "}";
  return os.str();
}

}  // namespace coperf::harness
