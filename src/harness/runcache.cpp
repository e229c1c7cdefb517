#include "harness/runcache.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "harness/report.hpp"
#include "obs/metrics.hpp"
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

// v5: the payload is the report document, to_json(GroupResult). The
// header bump quarantines every older entry through the wrong-header
// path, so a stale cache re-simulates instead of parsing garbage.
constexpr const char* kDiskHeader = "coperf-run-cache v5";

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
    if (sum == checksum_line(payload)) {
      try {
        *out = report::group_from_json(payload);
        return true;
      } catch (const std::runtime_error&) {
        // Checksummed but unreadable: quarantined like a bad checksum.
      }
    }
    quarantine(path, corrupt);
    return false;
  }

  void disk_store(const std::string& dir, const std::string& key,
                  const GroupResult& v) {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const auto path = entry_path(dir, key);
    const auto tmp = path.string() + ".tmp" + std::to_string(::getpid());
    const std::string payload = report::to_json(v) + '\n';
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
