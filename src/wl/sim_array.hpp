// Simulated-address data structures.
//
// Workload models mix two concerns: real data (a BFS needs real
// adjacency to traverse) and simulated addresses (what the cache model
// sees). AddrSpace hands out per-application address ranges; SimArray
// couples a host vector with such a range; SimView maps shared
// immutable host data (e.g. a cached graph) into an app's space.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/addr.hpp"

namespace coperf::wl {

/// One cache line of address-only footprint.
struct CacheLine {
  std::uint8_t bytes[sim::kLineBytes];
};

/// Doubles per cache line: the stride of a one-touch-per-line sweep.
inline constexpr std::size_t kDoublesPerLine = sim::kLineBytes / sizeof(double);

/// Bump allocator over one application's simulated address space.
class AddrSpace {
 public:
  explicit AddrSpace(sim::AppId app)
      : app_(app), next_(sim::app_base(app) + kStartOffset) {}

  /// Reserves `bytes` aligned to a cache line (optionally to 4K pages).
  sim::Addr alloc(std::size_t bytes, bool page_align = true) {
    const sim::Addr align = page_align ? 4096 : sim::kLineBytes;
    next_ = (next_ + align - 1) & ~(align - 1);
    const sim::Addr base = next_;
    next_ += bytes;
    if (next_ >= sim::app_base(app_) + (sim::Addr{1} << sim::kAppIdShift))
      throw std::length_error{"AddrSpace: application address space exhausted"};
    return base;
  }

  sim::AppId app() const { return app_; }
  std::size_t bytes_allocated() const {
    return static_cast<std::size_t>(next_ - sim::app_base(app_) - kStartOffset);
  }

 private:
  static constexpr sim::Addr kStartOffset = 1 << 16;
  sim::AppId app_;
  sim::Addr next_;
};

/// Host-backed array with a simulated address range.
template <typename T>
class SimArray {
 public:
  SimArray() = default;
  SimArray(AddrSpace& space, std::size_t n, T init = T{})
      : data_(n, init), base_(space.alloc(n * sizeof(T))) {}

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  sim::Addr addr_of(std::size_t i) const { return base_ + i * sizeof(T); }
  sim::Addr base() const { return base_; }
  std::size_t bytes() const { return data_.size() * sizeof(T); }

  void fill(const T& v) { data_.assign(data_.size(), v); }

 private:
  std::vector<T> data_;
  sim::Addr base_ = 0;
};

/// Address-only array: footprint without host storage, for data whose
/// values never influence control flow (streamed field arrays etc.).
template <typename T>
class GhostArray {
 public:
  GhostArray() = default;
  GhostArray(AddrSpace& space, std::size_t n)
      : n_(n), base_(space.alloc(n * sizeof(T))) {}

  std::size_t size() const { return n_; }
  sim::Addr addr_of(std::size_t i) const { return base_ + i * sizeof(T); }
  sim::Addr base() const { return base_; }
  std::size_t bytes() const { return n_ * sizeof(T); }

 private:
  std::size_t n_ = 0;
  sim::Addr base_ = 0;
};

/// A value padded to a fixed record size. Used by the graph models to
/// preserve the paper's vertex-state-to-LLC footprint ratio under
/// scaled-down vertex counts: friendster keeps ~10-30 bytes of engine
/// state per vertex across several arrays, and that state is orders of
/// magnitude larger than the LLC -- with 2^17 vertices the same ratio
/// requires widening the per-vertex record.
template <typename T, std::size_t Bytes = 32>
struct Cell {
  static_assert(Bytes >= sizeof(T));
  T v{};
  unsigned char pad[Bytes - sizeof(T)]{};
};

/// Read-only view of shared host data mapped into an app's space.
template <typename T>
class SimView {
 public:
  SimView() = default;
  SimView(AddrSpace& space, std::span<const T> host)
      : host_(host), base_(space.alloc(host.size_bytes())) {}

  const T& operator[](std::size_t i) const { return host_[i]; }
  std::size_t size() const { return host_.size(); }

  sim::Addr addr_of(std::size_t i) const { return base_ + i * sizeof(T); }
  sim::Addr base() const { return base_; }
  std::size_t bytes() const { return host_.size_bytes(); }

 private:
  std::span<const T> host_{};
  sim::Addr base_ = 0;
};

}  // namespace coperf::wl
