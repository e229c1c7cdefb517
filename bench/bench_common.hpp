// Shared plumbing for the per-figure/per-table bench binaries.
//
// Every bench accepts:
//   --quick       Tiny inputs, 1 repetition (CI smoke)
//   --native      unscaled paper machine + Native inputs (slow)
//   --reps=N      repetitions (median), default 3 like the paper
//   --threads=N   foreground thread count (default 4, like the paper)
//   --size=S      explicit input size (tiny|small|native), overrides
//                 the --quick/--native default
//   --trace=FILE  record a Chrome trace of the run (Perfetto-loadable);
//                 written at exit
//   --metrics[=FILE]  print the obs metrics snapshot at exit (stdout,
//                 or FILE when given)
//
// A bench accepts these only when it reads them (the OptionalFlag set
// it passes to parse_args), and rejects them otherwise:
//   --csv         append machine-readable CSV after the table
//   --json        append machine-readable JSON after the table
//   --subset=A,B  restrict the bench to named workloads
// Bench-specific flags (e.g. bench_serving_tail's --slo=X and
// --victim=W) go through parse_args' `extra` hook.
// The snapshot benches build their result once as a json::Value:
// --json prints it and persists it as BENCH_<name>.json (emit_json),
// and --csv prints one row array of it (rows_csv).
//
// Malformed flag values (--reps=abc, --threads=) and flags the bench
// does not read are rejected with a clear diagnostic and exit code 2
// instead of an uncaught exception or silently ignored output, and
// --trace=/--metrics= paths that cannot be opened for writing fail the
// same way up front instead of silently dropping the output at exit.
#pragma once

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/classify.hpp"
#include "harness/plan.hpp"
#include "harness/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "wl/registry.hpp"

namespace coperf::bench {

struct BenchArgs {
  bool quick = false;
  bool native = false;
  bool csv = false;
  bool json = false;
  unsigned reps = 3;
  unsigned threads = 4;
  /// Workload names from --subset=A,B,... (empty = bench default).
  std::vector<std::string> subset;
  /// Explicit --size=tiny|small|native override (unset = derived).
  std::optional<wl::SizeClass> size_override;
  /// --trace=FILE: Chrome trace output path (empty = tracing off).
  std::string trace_path;
  /// --metrics[=FILE]: dump the metrics snapshot at exit.
  bool metrics = false;
  std::string metrics_path;  ///< empty = stdout

  sim::MachineConfig machine() const {
    return native ? sim::MachineConfig::paper() : sim::MachineConfig::scaled();
  }
  wl::SizeClass size() const {
    if (size_override) return *size_override;
    if (quick) return wl::SizeClass::Tiny;
    return native ? wl::SizeClass::Native : wl::SizeClass::Small;
  }
  unsigned effective_reps() const { return quick ? 1 : reps; }

  harness::RunOptions run_options() const {
    harness::RunOptions o;
    o.machine = machine();
    o.size = size();
    o.threads = threads;
    return o;
  }

  /// A plan seeded with this bench's options, ready for add_*() calls.
  harness::ExperimentPlan plan() const {
    return harness::ExperimentPlan{run_options()};
  }
};

/// Splits a --subset=A,B,C value into workload names.
inline std::vector<std::string> split_subset(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

inline wl::SizeClass parse_size(const std::string& s) {
  if (s == "tiny") return wl::SizeClass::Tiny;
  if (s == "small") return wl::SizeClass::Small;
  if (s == "native") return wl::SizeClass::Native;
  std::cerr << "bad --size=" << s << " (expected tiny|small|native)\n";
  std::exit(2);
}

/// Strict non-negative integer parse: the whole value must be digits.
/// `--reps=abc`, `--threads=`, and out-of-range values exit with a
/// diagnostic instead of throwing std::invalid_argument out of main.
inline unsigned parse_unsigned(const std::string& flag,
                               const std::string& value) {
  bool ok = !value.empty() && value.size() <= 9;
  for (const char c : value) ok = ok && c >= '0' && c <= '9';
  if (!ok) {
    std::cerr << "bad " << flag << "=" << (value.empty() ? "<empty>" : value)
              << " (expected a non-negative integer)\n";
    std::exit(2);
  }
  return static_cast<unsigned>(std::stoul(value));
}

/// Flags a bench reads only if it says so; parse_args rejects the rest.
enum OptionalFlag : unsigned {
  kCsv = 1u << 0,
  kJson = 1u << 1,
  kSubset = 1u << 2,
};

/// Strict positive decimal parse for --slo=: digits with at most one
/// '.', value must exceed `min`. Malformed or out-of-range values exit
/// with a diagnostic (code 2) instead of throwing out of main.
inline double parse_decimal_above(const std::string& flag,
                                  const std::string& value, double min) {
  bool ok = !value.empty() && value.size() <= 16;
  unsigned dots = 0, digits = 0;
  for (const char c : value) {
    if (c == '.')
      ++dots;
    else if (c >= '0' && c <= '9')
      ++digits;
    else
      ok = false;
  }
  ok = ok && dots <= 1 && digits >= 1;
  if (!ok) {
    std::cerr << "bad " << flag << "=" << (value.empty() ? "<empty>" : value)
              << " (expected a decimal number)\n";
    std::exit(2);
  }
  const double v = std::stod(value);
  if (!(v > min)) {
    std::cerr << "bad " << flag << "=" << value << " (must be > " << min
              << ")\n";
    std::exit(2);
  }
  return v;
}

/// Bench-specific flag hook for parse_args: return true when the flag
/// was consumed, false to fall through to the unknown-flag error.
using ExtraFlag = std::function<bool(const std::string& arg)>;

namespace detail {
/// Where the atexit observability flush sends its output. Plain static
/// storage (not function-locals) so the handler never touches an
/// object destroyed before it runs; the obs singletons themselves are
/// leaked for the same reason.
inline std::string& metrics_sink() {
  static std::string* s = new std::string;
  return *s;
}
inline bool& metrics_wanted() {
  static bool w = false;
  return w;
}

inline void obs_flush_at_exit() {
  obs::Trace& tr = obs::Trace::instance();
  if (tr.enabled()) {
    const std::string path = tr.stop();  // writes the trace file
    std::cerr << "trace written to " << path << " (" << tr.event_count()
              << " events; open in Perfetto or chrome://tracing)\n";
  }
  if (metrics_wanted()) {
    const std::string& path = metrics_sink();
    if (path.empty()) {
      std::cout << obs::Registry::instance().snapshot_json() << "\n";
    } else {
      std::ofstream out{path};
      obs::Registry::instance().snapshot_json(out);
      out << "\n";
      if (out)
        std::cerr << "metrics snapshot written to " << path << "\n";
      else
        std::cerr << "ERROR: metrics snapshot write to " << path
                  << " failed\n";
    }
  }
}

/// Fails fast (exit 2) when an observability output path cannot be
/// opened for writing, instead of silently dropping the trace/metrics
/// at exit. Probes in append mode so an existing file's contents are
/// left alone; the real writer truncates later.
inline void require_writable(const char* flag, const std::string& path) {
  std::ofstream probe{path, std::ios::app};
  if (!probe) {
    std::cerr << flag << "=" << path << ": cannot open for writing\n";
    std::exit(2);
  }
}

/// Registers the flush once, on the first --trace/--metrics flag.
inline void arm_obs_flush() {
  static const bool armed = [] {
    std::atexit(obs_flush_at_exit);
    return true;
  }();
  (void)armed;
}
}  // namespace detail

/// `optional`: the OptionalFlag bits this bench reads; any other
/// optional flag is rejected instead of silently ignored. `extra`
/// consumes bench-specific flags (documented via `extra_help`, appended
/// to --help).
inline BenchArgs parse_args(int argc, char** argv, unsigned optional = 0,
                            const ExtraFlag& extra = {},
                            const std::string& extra_help = {}) {
  const auto require = [optional](OptionalFlag flag, const char* name) {
    if ((optional & flag) != 0) return;
    std::cerr << "this bench does not support " << name << "\n";
    std::exit(2);
  };
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (extra && extra(arg)) {
      continue;
    } else if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--native") {
      a.native = true;
    } else if (arg == "--csv") {
      require(kCsv, "--csv");
      a.csv = true;
    } else if (arg == "--json") {
      require(kJson, "--json");
      a.json = true;
    } else if (arg.rfind("--reps=", 0) == 0) {
      a.reps = parse_unsigned("--reps", arg.substr(7));
    } else if (arg.rfind("--threads=", 0) == 0) {
      a.threads = parse_unsigned("--threads", arg.substr(10));
    } else if (arg.rfind("--subset=", 0) == 0) {
      require(kSubset, "--subset");
      a.subset = split_subset(arg.substr(9));
      if (a.subset.empty()) {
        // An empty value (e.g. an unset shell variable) must not
        // silently degrade to the full sweep.
        std::cerr << "--subset= needs at least one workload name\n";
        std::exit(2);
      }
    } else if (arg.rfind("--size=", 0) == 0) {
      a.size_override = parse_size(arg.substr(7));
    } else if (arg.rfind("--trace=", 0) == 0) {
      a.trace_path = arg.substr(8);
      if (a.trace_path.empty()) {
        std::cerr << "--trace= needs an output file path\n";
        std::exit(2);
      }
      detail::require_writable("--trace", a.trace_path);
      detail::arm_obs_flush();
      obs::Trace::instance().start(a.trace_path);
    } else if (arg == "--metrics" || arg.rfind("--metrics=", 0) == 0) {
      a.metrics = true;
      if (arg.size() > 9) a.metrics_path = arg.substr(10);
      if (!a.metrics_path.empty())
        detail::require_writable("--metrics", a.metrics_path);
      detail::metrics_wanted() = true;
      detail::metrics_sink() = a.metrics_path;
      detail::arm_obs_flush();
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "flags: --quick --native --reps=N --threads=N"
                   " --size=tiny|small|native --trace=FILE --metrics[=FILE]"
                << ((optional & kCsv) != 0 ? " --csv" : "")
                << ((optional & kJson) != 0 ? " --json" : "")
                << ((optional & kSubset) != 0 ? " --subset=A,B,..." : "")
                << (extra_help.empty() ? "" : " " + extra_help) << "\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag " << arg << " (see --help)\n";
      std::exit(2);
    }
  }
  return a;
}

inline const char* size_name(wl::SizeClass s) {
  switch (s) {
    case wl::SizeClass::Tiny: return "Tiny";
    case wl::SizeClass::Small: return "Small";
    case wl::SizeClass::Native: return "Native";
  }
  return "?";
}

inline void print_config(const BenchArgs& a, const std::string& what) {
  std::cout << "== coperf bench: " << what << " ==\n"
            << "   config: " << (a.native ? "paper" : "scaled") << " machine, "
            << size_name(a.size()) << " inputs, " << a.effective_reps()
            << " rep(s), " << a.threads << " threads";
  if (!a.subset.empty()) std::cout << ", subset of " << a.subset.size();
  std::cout << "\n\n";
}

/// Where BENCH_*.json snapshots go, so the numbers a change ships with
/// sit next to its code: COPERF_BENCH_SNAPSHOT_DIR when non-empty, else
/// the first ancestor of the cwd holding ROADMAP.md and CMakeLists.txt
/// (the repo root), else nullopt.
inline std::optional<std::filesystem::path> snapshot_dir() {
  namespace fs = std::filesystem;
  if (const char* env = std::getenv("COPERF_BENCH_SNAPSHOT_DIR"))
    if (*env != '\0') return fs::path{env};
  std::error_code ec;
  fs::path dir = fs::current_path(ec);
  if (ec) return std::nullopt;
  for (; !dir.empty(); dir = dir.parent_path()) {
    if (fs::exists(dir / "ROADMAP.md", ec) &&
        fs::exists(dir / "CMakeLists.txt", ec))
      return dir;
    if (dir == dir.root_path()) break;
  }
  return std::nullopt;
}

/// Writes BENCH_<name>.json holding `json` (newline-terminated) into
/// snapshot_dir(), reporting the path -- or why it was skipped, since a
/// run outside the repo must not fail over bookkeeping -- on stderr.
inline void write_snapshot(const std::string& name, const std::string& json) {
  const auto dir = snapshot_dir();
  if (!dir) {
    std::cerr << "bench snapshot skipped: no repo root found and "
                 "COPERF_BENCH_SNAPSHOT_DIR is unset\n";
    return;
  }
  const std::filesystem::path path = *dir / ("BENCH_" + name + ".json");
  std::ofstream out{path};
  if (!out) {
    std::cerr << "bench snapshot skipped: cannot write " << path.string()
              << "\n";
    return;
  }
  out << json;
  if (!json.empty() && json.back() != '\n') out << "\n";
  std::cerr << "bench snapshot written to " << path.string() << "\n";
}

/// `rows` -- an array of flat objects -- as CSV through Table::to_csv:
/// the first row's keys are the header, and each cell is its value's
/// JSON text with strings unquoted (to_csv quotes what needs it). A row
/// with a missing or extra key, or a nested value, throws.
inline std::string rows_csv(const json::Value& rows) {
  if (rows.arr().empty()) return {};
  std::vector<std::string> header;
  for (const auto& field : rows.items.front().fields)
    header.push_back(field.first);
  harness::Table table{header};
  for (const json::Value& row : rows.items) {
    if (row.fields.size() != header.size())
      throw std::runtime_error{"csv: every row needs the first row's keys"};
    std::vector<std::string> cells;
    for (const std::string& key : header) {
      const json::Value& v = row.at(key);
      if (v.kind == json::Value::Kind::Array ||
          v.kind == json::Value::Kind::Object)
        throw std::runtime_error{"csv: '" + key + "' is nested"};
      // A string's text is its value, a number's its token, null's "".
      cells.push_back(v.kind != json::Value::Kind::Bool ? v.text
                      : v.flag                          ? "true"
                                                        : "false");
    }
    table.add_row(std::move(cells));
  }
  return table.to_csv();
}

/// Prints `doc` after a blank line and writes it as BENCH_<name>.json:
/// stdout and the snapshot hold the same bytes.
inline void emit_json(const std::string& name, const json::Value& doc) {
  const std::string text = json::write(doc);
  std::cout << "\n" << text;
  write_snapshot(name, text);
}

/// Progress reporter for plan execution: trials done/total plus an ETA
/// extrapolated from the mean trial rate so far. On a terminal the
/// line updates in place; piped (CI logs) it prints every ~10th
/// milestone.
inline harness::ExperimentPlan::Progress plan_progress() {
  const bool tty = ::isatty(2) != 0;
  const auto start = std::chrono::steady_clock::now();
  return [tty, start](std::size_t done, std::size_t total,
                      const harness::Trial&) {
    if (total < 8) return;
    const auto eta = [&]() -> std::string {
      if (done == 0 || done == total) return {};
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const double left =
          elapsed / static_cast<double>(done) *
          static_cast<double>(total - done);
      return " (eta " + std::to_string(static_cast<long>(left + 0.5)) + "s)";
    };
    if (tty) {
      std::cerr << "\r  trial " << done << "/" << total << eta()
                << (done == total ? "\n" : "    ") << std::flush;
      return;
    }
    const std::size_t step = total < 10 ? 1 : total / 10;
    if (done % step == 0 || done == total)
      std::cerr << "  trial " << done << "/" << total << eta() << "\n";
  };
}

}  // namespace coperf::bench
