// Bump arena backing per-machine simulation state.
//
// A trial constructs one Machine, which owns 17 caches (2 private
// levels x 8 cores + L3) and 8 prefetcher banks; before the arena each
// cache carried ~6 separate vectors, so ExperimentPlan fan-outs paid
// ~130 allocator round-trips per trial just to build and tear down the
// machine. The arena replaces all of that with a couple of geometric
// block allocations that free in O(blocks) when the trial ends -- the
// construct/teardown component of `plan.trial_us` is what this buys
// down. Storage is zero-initialized (the vectors it replaces were
// assign(n, 0)), trivially-destructible element types only.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace coperf::sim {

class Arena {
 public:
  Arena() = default;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Zero-initialized array of `n` elements. Pointers stay valid for
  /// the arena's lifetime (blocks are never reallocated, only chained),
  /// so holders remain trivially movable.
  template <class T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "arena storage is raw memory: trivial types only");
    static_assert(alignof(T) <= kAlign);
    if (n == 0) return nullptr;
    void* p = allocate(n * sizeof(T));
    std::memset(p, 0, n * sizeof(T));
    return static_cast<T*>(p);
  }

 private:
  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kLine = 64;
  static constexpr std::size_t kPage = 4096;
  static constexpr std::size_t kMinBlock = 64 * 1024;

  void* allocate(std::size_t bytes) {
    bytes = (bytes + (kAlign - 1)) & ~(kAlign - 1);
    // Rotate each allocation's page offset by a cache line. The arrays
    // this arena serves (cache tags / LRU stamps / flags, scanned at
    // the same element index together) have power-of-two sizes; packed
    // back-to-back they would land on identical 4 KiB page offsets and
    // collide in the same host L1 sets / 4K store-forwarding windows on
    // every single access. malloc decorrelated them by accident; the
    // skew does it on purpose, for one wasted line per allocation.
    skew_ = (skew_ + kLine) & (kPage - 1);
    if (used_ + ((skew_ - used_) & (kPage - 1)) + bytes > cap_)
      grow(bytes + kPage);
    used_ += (skew_ - used_) & (kPage - 1);
    void* p = cur_ + used_;
    used_ += bytes;
    return p;
  }

  void grow(std::size_t need) {
    std::size_t size = blocks_.empty() ? kMinBlock : 2 * blocks_.back().size;
    if (size < need) size = need;
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});
    cur_ = blocks_.back().data.get();
    cap_ = size;
    used_ = 0;
  }

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };
  std::vector<Block> blocks_;
  std::byte* cur_ = nullptr;
  std::size_t used_ = 0;
  std::size_t cap_ = 0;
  std::size_t skew_ = 0;  ///< rotating page offset for the next allocation
};

}  // namespace coperf::sim
