// Chrome-trace-event recorder (obs subsystem).
//
// Records duration spans, instant events, and counter tracks into the
// Chrome trace-event JSON format, loadable in chrome://tracing and
// Perfetto (https://ui.perfetto.dev). Two clock domains coexist as
// separate trace "processes":
//
//   * pid kHostPid -- wall-clock host time. Spans opened with
//     Trace::Span land on the calling thread's lane (one tid per host
//     thread, so ExperimentPlan trials draw one row per pool worker).
//   * explicit pids/lanes with caller-supplied timestamps --
//     cluster::render_timeline draws *simulated* time this way, one
//     lane per machine, one trace process per simulate() call.
//
// Recording is off by default. Every emit checks one relaxed atomic
// bool and returns -- the branch-only zero-overhead-when-off fast
// path; a disabled Span does not even read the clock. Events buffer in
// memory under a mutex (emission points are coarse: per trial, per
// scheduler event -- never per simulated op) and write() dumps the
// JSON document; start(path)/stop() bracket a recording that flushes
// to a file, which is what the bench binaries' --trace=FILE flag uses.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>

#include "obs/metrics.hpp"  // wall_us -- the shared host time base

namespace coperf::obs {

/// Small builder for a trace event's "args" JSON object.
class Args {
 public:
  Args& set(std::string_view key, std::string_view value);
  Args& set(std::string_view key, const char* value) {
    return set(key, std::string_view{value});
  }
  Args& set(std::string_view key, double value);
  Args& set(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  Args& set(std::string_view key, T value) {
    return raw(key, std::to_string(value));
  }

  /// "{...}" -- empty object when nothing was set.
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Args& raw(std::string_view key, std::string_view rendered);
  std::string body_;
};

class Trace {
 public:
  static Trace& instance();

  /// Trace process id of the wall-clock host timeline.
  static constexpr int kHostPid = 1;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Clears the buffer and starts recording. When `path` is non-empty,
  /// stop() writes the trace there.
  void start(std::string path = {});
  /// Stops recording and flushes to the start() path (if any),
  /// returning that path (empty when none was set or the write
  /// failed). Safe to call when not recording.
  std::string stop();
  /// Drops all buffered events (recording state unchanged).
  void clear();

  std::size_t event_count() const;

  /// Writes the full trace document ({"displayTimeUnit","traceEvents"}).
  void write(std::ostream& os) const;

  /// Wall-clock timestamp (us since process obs epoch; see
  /// obs::wall_us) -- the host-lane time base.
  double now_us() const { return wall_us(); }

  // --- wall-clock host lanes ------------------------------------------

  /// RAII duration span ("ph":"X") on the calling thread's host lane.
  /// Constructing while disabled records nothing and reads no clock.
  class Span {
   public:
    explicit Span(std::string name, std::string args_json = {});
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    bool live_;
    double t0_ = 0.0;
    std::string name_;
    std::string args_;
  };

  /// Completed span on the calling thread's host lane (explicit times).
  void complete_host(std::string name, double ts_us, double dur_us,
                     std::string args_json = {});
  /// Instant event ("ph":"i") on the calling thread's host lane, now.
  void instant(std::string name, std::string args_json = {});
  /// Counter sample ("ph":"C") on the host process track, now.
  void counter(std::string name, double value);

  // --- explicit timelines (simulated time) ----------------------------

  void complete(int pid, int tid, std::string name, double ts_us,
                double dur_us, std::string args_json = {});
  void instant_at(int pid, int tid, std::string name, double ts_us,
                  std::string args_json = {});
  void counter_at(int pid, std::string name, double ts_us, double value);
  void name_process(int pid, std::string name);
  void name_thread(int pid, int tid, std::string name);

  /// Allocates a fresh trace pid for an explicit timeline (one per
  /// cluster simulate() call, so repeated runs get separate lanes).
  int next_pid();

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

 private:
  Trace();
  struct Impl;
  Impl* impl_;  // leaked with the singleton (safe in atexit handlers)
  std::atomic<bool> enabled_{false};
};

}  // namespace coperf::obs
