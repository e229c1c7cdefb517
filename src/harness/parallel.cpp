#include "harness/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace coperf::harness {

namespace {

/// One parallel_for invocation, shared between the caller and the pool
/// workers that join it. Work is claimed one index at a time.
struct Job {
  std::size_t total = 0;
  unsigned participants = 1;
  const std::function<void(std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::atomic<unsigned> active{0};  ///< workers currently inside the job
  unsigned joined = 0;  ///< workers admitted so far (guarded by pool mu_)
  std::exception_ptr error;
  std::mutex error_mu;

  void record_error() {
    std::lock_guard lock{error_mu};
    if (!error) error = std::current_exception();
    failed.store(true);
  }

  void work() {
    for (;;) {
      // Check BEFORE claiming: a failed sweep must not burn one index
      // per worker loop on its way out.
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1);
      if (i >= total) return;
      try {
        (*body)(i);
      } catch (...) {
        record_error();
        return;
      }
    }
  }
};

thread_local bool tls_inside_pool_worker = false;

/// Lazily-spawned persistent worker pool (process lifetime). Workers
/// sleep on a condition variable between parallel_for calls.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  unsigned size() {
    std::lock_guard lock{mu_};
    return static_cast<unsigned>(threads_.size());
  }

  void run(std::size_t total, unsigned participants,
           const std::function<void(std::size_t)>& body) {
    auto job = std::make_shared<Job>();
    job->total = total;
    job->participants = participants;
    job->body = &body;
    {
      std::lock_guard lock{mu_};
      ensure_workers(participants - 1);
      current_ = job;
      ++job_seq_;
      work_cv_.notify_all();
    }
    job->work();  // the caller is participant number one
    std::unique_lock lock{mu_};
    if (current_ == job) current_.reset();  // no new joiners past this point
    done_cv_.wait(lock, [&] { return job->active.load() == 0; });
    lock.unlock();
    if (job->error) std::rethrow_exception(job->error);
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

 private:
  WorkerPool() = default;

  ~WorkerPool() {
    {
      std::lock_guard lock{mu_};
      stop_ = true;
      work_cv_.notify_all();
    }
    for (auto& t : threads_) t.join();
  }

  void ensure_workers(unsigned wanted) {
    while (threads_.size() < wanted) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    tls_inside_pool_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock lock{mu_};
        work_cv_.wait(lock, [&] {
          return stop_ || (current_ != nullptr && job_seq_ != seen);
        });
        if (stop_) return;
        seen = job_seq_;
        // Honor the job's host_threads cap: the caller is participant
        // one, so at most participants-1 pool workers may join even
        // when earlier calls grew the pool beyond that.
        if (current_->joined >= current_->participants - 1) continue;
        job = current_;
        ++job->joined;
        job->active.fetch_add(1);
      }
      job->work();
      {
        std::lock_guard lock{mu_};
        if (job->active.fetch_sub(1) == 1) done_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  std::shared_ptr<Job> current_;
  std::uint64_t job_seq_ = 0;
  bool stop_ = false;
};

/// CPUs this thread may run on; 0 if unknown.
unsigned host_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

}  // namespace

unsigned lane_count(std::size_t total, unsigned host_threads) {
  unsigned n = host_threads != 0 ? host_threads : host_cpus();
  if (n == 0) n = 4;
  return static_cast<unsigned>(
      std::min<std::size_t>(n, std::max<std::size_t>(total, 1)));
}

void parallel_for(std::size_t total, unsigned host_threads,
                  const std::function<void(std::size_t)>& body) {
  const unsigned n = lane_count(total, host_threads);
  // Serial fast path; also taken from inside a pool worker (nested
  // parallel_for must not wait on the pool it is running on).
  if (n <= 1 || tls_inside_pool_worker) {
    for (std::size_t i = 0; i < total; ++i) body(i);
    return;
  }
  WorkerPool::instance().run(total, n, body);
}

unsigned pool_size() { return WorkerPool::instance().size(); }

}  // namespace coperf::harness
