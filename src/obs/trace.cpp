#include "obs/trace.hpp"

#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace coperf::obs {

namespace {

struct Event {
  char ph = 'X';
  int pid = Trace::kHostPid;
  int tid = 0;
  double ts = 0.0;
  double dur = 0.0;  // X only
  std::string name;
  std::string args;  // pre-rendered JSON object, may be empty
};

void put_event(std::ostream& os, const Event& e) {
  os << "{\"name\": " << json::quote(e.name) << ", \"ph\": \"" << e.ph
     << "\", \"pid\": " << e.pid << ", \"tid\": " << e.tid
     << ", \"ts\": " << json::number(e.ts);
  if (e.ph == 'X') os << ", \"dur\": " << json::number(e.dur);
  if (e.ph == 'i') os << ", \"s\": \"t\"";  // thread-scoped instant
  if (!e.args.empty()) os << ", \"args\": " << e.args;
  os << "}";
}

/// Host lane id of the calling thread, assigned on first use.
int host_lane() {
  static std::atomic<int> next{0};
  thread_local const int lane = next.fetch_add(1);
  return lane;
}

}  // namespace

// --- Args ------------------------------------------------------------

Args& Args::raw(std::string_view key, std::string_view rendered) {
  if (!body_.empty()) body_ += ", ";
  body_ += json::quote(key);
  body_ += ": ";
  body_ += rendered;
  return *this;
}

Args& Args::set(std::string_view key, std::string_view value) {
  return raw(key, json::quote(value));
}

Args& Args::set(std::string_view key, double value) {
  return raw(key, json::number(value));
}

// --- Trace -----------------------------------------------------------

struct Trace::Impl {
  mutable std::mutex mu;
  std::vector<Event> events;
  std::string path;
  std::atomic<int> next_pid{2};  // 1 is the host timeline

  void push(Event e) {
    std::lock_guard lock{mu};
    events.push_back(std::move(e));
  }
};

Trace::Trace() : impl_(new Impl) {}

Trace& Trace::instance() {
  // Leaked: stop() may run from an atexit handler, after function-local
  // statics would have been destroyed.
  static Trace* tr = new Trace;
  return *tr;
}

void Trace::start(std::string path) {
  std::lock_guard lock{impl_->mu};
  impl_->events.clear();
  impl_->path = std::move(path);
  enabled_.store(true, std::memory_order_relaxed);
}

std::string Trace::stop() {
  enabled_.store(false, std::memory_order_relaxed);
  std::string path;
  {
    std::lock_guard lock{impl_->mu};
    path = impl_->path;
  }
  if (path.empty()) return {};
  std::ofstream out{path};
  if (!out) {
    std::cerr << "obs::Trace: cannot write trace to " << path << "\n";
    return {};
  }
  write(out);
  return path;
}

void Trace::clear() {
  std::lock_guard lock{impl_->mu};
  impl_->events.clear();
}

std::size_t Trace::event_count() const {
  std::lock_guard lock{impl_->mu};
  return impl_->events.size();
}

int Trace::next_pid() { return impl_->next_pid.fetch_add(1); }

void Trace::write(std::ostream& os) const {
  std::lock_guard lock{impl_->mu};
  os << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  // Synthesize names for lanes no one named explicitly, so every row
  // in Perfetto is labeled.
  std::set<int> named_pids;
  std::set<std::pair<int, int>> named_lanes;
  std::set<int> seen_pids;
  std::set<std::pair<int, int>> seen_lanes;
  for (const Event& e : impl_->events) {
    if (e.ph == 'M') {
      if (e.name == "process_name") named_pids.insert(e.pid);
      if (e.name == "thread_name") named_lanes.insert({e.pid, e.tid});
    } else {
      seen_pids.insert(e.pid);
      if (e.ph != 'C') seen_lanes.insert({e.pid, e.tid});
    }
  }
  const char* sep = "";
  const auto emit = [&](const Event& e) {
    os << sep;
    put_event(os, e);
    sep = ",\n";
  };
  for (const int pid : seen_pids)
    if (named_pids.count(pid) == 0)
      emit(Event{'M', pid, 0, 0.0, 0.0, "process_name",
                 Args{}.set("name", pid == kHostPid ? "host (wall clock)"
                                                    : "timeline " +
                                                          std::to_string(pid))
                     .str()});
  for (const auto& [pid, tid] : seen_lanes)
    if (named_lanes.count({pid, tid}) == 0)
      emit(Event{'M', pid, tid, 0.0, 0.0, "thread_name",
                 Args{}.set("name", (pid == kHostPid ? "host-" : "lane-") +
                                        std::to_string(tid))
                     .str()});
  for (const Event& e : impl_->events) emit(e);
  os << "\n]}\n";
}

// --- host lanes ------------------------------------------------------

Trace::Span::Span(std::string name, std::string args_json)
    : live_(Trace::instance().enabled()) {
  if (!live_) return;
  name_ = std::move(name);
  args_ = std::move(args_json);
  t0_ = Trace::instance().now_us();
}

void Trace::Span::set_args(std::string args_json) {
  if (live_) args_ = std::move(args_json);
}

Trace::Span::~Span() {
  if (!live_) return;
  Trace& tr = Trace::instance();
  if (!tr.enabled()) return;  // stopped mid-span: drop it
  tr.complete_host(std::move(name_), t0_, tr.now_us() - t0_,
                   std::move(args_));
}

void Trace::complete_host(std::string name, double ts_us, double dur_us,
                          std::string args_json) {
  if (!enabled()) return;
  impl_->push(Event{'X', kHostPid, host_lane(), ts_us, dur_us,
                    std::move(name), std::move(args_json)});
}

void Trace::instant(std::string name, std::string args_json) {
  if (!enabled()) return;
  impl_->push(Event{'i', kHostPid, host_lane(), now_us(), 0.0,
                    std::move(name), std::move(args_json)});
}

void Trace::counter(std::string name, double value) {
  if (!enabled()) return;
  impl_->push(Event{'C', kHostPid, 0, now_us(), 0.0, std::move(name),
                    Args{}.set("value", value).str()});
}

// --- explicit timelines ----------------------------------------------

void Trace::complete(int pid, int tid, std::string name, double ts_us,
                     double dur_us, std::string args_json) {
  if (!enabled()) return;
  impl_->push(
      Event{'X', pid, tid, ts_us, dur_us, std::move(name), std::move(args_json)});
}

void Trace::instant_at(int pid, int tid, std::string name, double ts_us,
                       std::string args_json) {
  if (!enabled()) return;
  impl_->push(
      Event{'i', pid, tid, ts_us, 0.0, std::move(name), std::move(args_json)});
}

void Trace::counter_at(int pid, std::string name, double ts_us, double value) {
  if (!enabled()) return;
  impl_->push(Event{'C', pid, 0, ts_us, 0.0, std::move(name),
                    Args{}.set("value", value).str()});
}

void Trace::name_process(int pid, std::string name) {
  if (!enabled()) return;
  impl_->push(Event{'M', pid, 0, 0.0, 0.0, "process_name",
                    Args{}.set("name", name).str()});
}

void Trace::name_thread(int pid, int tid, std::string name) {
  if (!enabled()) return;
  impl_->push(Event{'M', pid, tid, 0.0, 0.0, "thread_name",
                    Args{}.set("name", name).str()});
}

}  // namespace coperf::obs
