// Large-block check for the cluster engine, independent of heap layout.
// A block of util::MappedAllocator::kMappedBytes or more that comes from
// malloc can be recycled through the heap once freed and strand pages,
// so peak RSS would depend on what ran before (util/mapped.hpp). This
// binary replaces the global operator new, records the largest request
// made while a flag is set, and asserts that one simulate() at fleet
// scale requests no such block: every block that grows with the jobs
// or the machines is mapped. It is a binary of its own because the
// replacement holds for the whole program.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/open_classes.hpp"
#include "cluster_fixtures.hpp"
#include "harness/matrix.hpp"

namespace {

std::atomic<bool> recording{false};
std::atomic<std::size_t> largest{0};

void note(std::size_t n) {
  if (!recording.load(std::memory_order_relaxed)) return;
  std::size_t seen = largest.load(std::memory_order_relaxed);
  while (n > seen && !largest.compare_exchange_weak(seen, n)) {
  }
}

void* allocate(std::size_t n) {
  note(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}

void* allocate(std::size_t n, std::align_val_t a) {
  note(n);
  const auto align = static_cast<std::size_t>(a);
  const std::size_t size =
      (std::max<std::size_t>(n, 1) + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace coperf::cluster {
namespace {

constexpr std::size_t kMapped = util::MappedAllocator<char>::kMappedBytes;

/// The largest operator new request `f` makes.
template <class F>
std::size_t largest_request(F&& f) {
  largest = 0;
  recording = true;
  f();
  recording = false;
  return largest;
}

TEST(LargeBlocks, HookSeesAMebibyteRequest) {
  EXPECT_EQ(largest_request([] { std::vector<char> v(kMapped, 1); }), kMapped);
}

// 80k machines of 2 slots and 80k jobs that nearly all run at once.
// Per job, the smallest block is the bills' (24 B a decision, 1.9 MB);
// per machine it is an IndexedHeap's entries (16 B): the completion
// heap's, with over 65k machines busy at once, and the empty class's
// in OpenClasses, which the cost-model policy fills with the whole
// fleet on its first decision. Only the handle, flag and bitset arrays
// (4 B or less per machine) stay under 1 MiB; they pass it at 262k
// machines.
TEST(LargeBlocks, SimulateRequestsNoMappableBlock) {
  constexpr std::size_t kMachines = 80'000;
  const harness::CorunMatrix truth = synthetic_truth();
  harness::MatrixTruth additive{truth};
  TraceOptions topt;
  topt.jobs = kMachines;
  topt.mean_interarrival = 0.001;
  topt.mean_work = 1000.0;
  const std::vector<JobSpec> trace = synthetic_trace(4, topt);
  const ClusterConfig cfg{kMachines, 2};
  CostModelPolicy oracle{"oracle", truth};

  ClusterResult res;
  const std::size_t request = largest_request(
      [&] { res = simulate(cfg, additive, trace, oracle); });
  EXPECT_LT(request, kMapped)
      << "a " << request << "-byte block came from malloc";

  // The sizes above hold: every job ran, and enough of them at once
  // that the completion heap passed 1 MiB.
  ASSERT_EQ(res.completed_jobs, trace.size());
  ASSERT_GE(res.bills.size() * sizeof(DecisionBill), kMapped);
  std::vector<unsigned> residents(kMachines, 0);
  std::size_t busy = 0, most_busy = 0;
  for (const TraceEvent& e : res.log.events) {
    if (e.kind == TraceEvent::Kind::Place && residents[e.machine]++ == 0)
      most_busy = std::max(most_busy, ++busy);
    if (e.kind == TraceEvent::Kind::Finish && --residents[e.machine] == 0)
      --busy;
  }
  EXPECT_GE(most_busy * sizeof(IndexedHeap::Entry), kMapped);
}

}  // namespace
}  // namespace coperf::cluster
