// perfbench: one cold execution loop of a benchmark workload.
//
//   perfbench setup --workload W --seed N
//       builds the workload's inputs once and prints the set-up time;
//   perfbench run --workload W --seed N --seconds T --trace 0|1
//                 --tmpdir DIR [--git-sha SHA]
//       untraced: repeats cold executions for about T seconds and prints
//       the end-to-end metrics; traced: one plain and one instrumented
//       execution plus the sim and wl layer probes, and prints the
//       per-layer ledger.
//
// The last line is one JSON record; run.py checks its digests against
// the pinned ones and prints the benchmark's result line.
#include <sched.h>
#include <sys/resource.h>

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "probes.hpp"
#include "util.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Seeds map onto this many pinned input sets.
constexpr unsigned kInputSets = 8;

struct Args {
  std::string mode, workload, tmpdir = ".", git_sha = "unknown";
  long long seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument{"usage: perfbench setup|run ..."};
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoll(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--tmpdir") a.tmpdir = v;
    else if (k == "--git-sha") a.git_sha = v;
    else throw std::invalid_argument{"unknown flag " + k};
  }
  if (a.mode != "setup" && a.mode != "run")
    throw std::invalid_argument{"mode must be setup or run"};
  return a;
}

/// CPUs this process may run on: the harness pool's lane count.
unsigned allowed_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string join(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : ", ") + num(x);
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int run(const Args& a) {
  Stamp stamp;
  stamp.nproc = std::max(1u, std::thread::hardware_concurrency());
  stamp.lanes = allowed_cpus();
  stamp.compiler = compiler_id();
  stamp.build_type = PERFBENCH_BUILD_TYPE;
  stamp.git_sha = a.git_sha;
  stamp.seed = a.seed;
  stamp.input_set = input_set(a.seed, kInputSets);

  Options opt;
  opt.input = stamp.input_set;
  opt.lanes = stamp.lanes;
  opt.tmpdir = a.tmpdir;
  auto wl = make_workload(a.workload, opt);

  const double s0 = now_s();
  wl->setup();
  const double setup_s = now_s() - s0;
  if (a.mode == "setup") {
    std::cout << "{\"record\": \"setup\", \"stamp\": " << stamp.json()
              << ", \"setup_s\": " << num(setup_s) << "}" << std::endl;
    return 0;
  }

  Ledger metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::string digest, probe_digest;
  std::vector<double> walls;
  const auto check = [&](const Iteration& it) {
    attempted += it.attempted;
    failed += it.failed;
    if (digest.empty()) digest = it.digest;
    // Every execution must reproduce the first one exactly.
    if (it.digest != digest) failed += it.attempted;
    walls.push_back(it.wall_s);
  };

  if (!a.trace) {
    std::vector<double> rates;
    const double t0 = now_s();
    do {
      const Iteration it = wl->run(nullptr);
      check(it);
      rates.push_back(static_cast<double>(it.attempted) / it.wall_s);
    } while (now_s() - t0 + walls.back() <= a.seconds);
    metrics.set("wall_s", median(walls), "s");
    metrics.set("ops_per_s", median(rates), "1/s");
    metrics.set("setup_s", setup_s, "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const Iteration plain = wl->run(nullptr);
    check(plain);
    const Iteration traced = wl->run(&metrics);
    check(traced);
    std::cout << "# tracing overhead " << a.workload << ": "
              << num(traced.wall_s - plain.wall_s) << " s (traced "
              << num(traced.wall_s) << " s, untraced " << num(plain.wall_s)
              << " s)\n";
    metrics.set("trace.overhead_s", traced.wall_s - plain.wall_s, "s");
    probe_wl(opt.input, wl->model_setup_ms(), metrics);
    probe_digest = probe_sim(opt.input, metrics);
    for (const auto& probe : make_layer_probes(opt)) {
      Ledger idle;
      probe->setup();
      // A probe that fails its own checks fails the whole traced run.
      if (probe->run(&idle).failed != 0) failed = attempted;
      metrics.merge_missing(idle);
    }
  }

  std::cout << "{\"record\": \"result\", \"workload\": " << quoted(a.workload)
            << ", \"trace\": " << (a.trace ? 1 : 0)
            << ", \"stamp\": " << stamp.json()
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"digest\": " << quoted(digest)
            << ", \"probe_digest\": " << quoted(probe_digest)
            << ", \"setup_s\": " << num(setup_s)
            << ", \"walls\": [" << join(walls) << "]"
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
