// Page-mapped storage for large arrays a run allocates and frees (util).
//
// glibc's malloc gives a block at or above its dynamic mmap threshold a
// mapping of its own, but raises that threshold to the size of each
// mapped block it frees, up to a cap of 32 MiB. Once a run frees a
// block below the cap, the next run's block of that size comes from the
// heap; when a small allocation lands in the freed block in between,
// the heap grows instead and the old block's touched pages stay
// resident. A process's peak RSS then depends on how many runs came
// before, and on the sizes of unrelated small allocations.
// MappedAllocator maps each block of at least kMappedBytes itself and
// unmaps it on free, so its pages leave the process with it, and
// reserved room that is never written costs no memory.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>

namespace coperf::util {

template <typename T>
struct MappedAllocator {
  using value_type = T;

  /// Smaller blocks come from std::allocator. Mapping, first-touching
  /// and unmapping a block costs about 6.5 us (4-CPU x86-64 VM): mapping
  /// all three of a cluster run's blocks made a 3-job simulate() take
  /// 22.5 us instead of 3.4 us, and a 400-job one 190 us instead of
  /// 157 us. From 1 MiB on, that cost is under 0.1% of filling the
  /// block, and a stranded block below it stays inside the 2 MB that
  /// bench/peak_rss_gate.py allows.
  static constexpr std::size_t kMappedBytes = std::size_t{1} << 20;

  static constexpr bool maps(std::size_t n) {
    return n * sizeof(T) >= kMappedBytes;
  }

  /// Faults in the first `n` elements of `p`, a block of `capacity`
  /// elements from this allocator, if it is a mapping: one madvise call
  /// instead of a page fault per page as the elements are first
  /// written. Only for a prefix the caller writes anyway, so it costs
  /// no memory that writing it would not. MADV_POPULATE_WRITE needs
  /// Linux 5.14; an older kernel refuses it, and the pages fault in on
  /// first write as before.
  static void populate(T* p, std::size_t capacity, std::size_t n) {
#ifdef MADV_POPULATE_WRITE
    if (maps(capacity) && n > 0)
      madvise(p, std::min(n, capacity) * sizeof(T), MADV_POPULATE_WRITE);
#else
    (void)p, (void)capacity, (void)n;
#endif
  }

  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}

  // std::vector checks n against max_size() first, so n * sizeof(T)
  // does not overflow.
  T* allocate(std::size_t n) {
    if (!maps(n)) return std::allocator<T>{}.allocate(n);
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc{};
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (maps(n))
      munmap(p, n * sizeof(T));
    else
      std::allocator<T>{}.deallocate(p, n);
  }

  template <typename U>
  bool operator==(const MappedAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace coperf::util
