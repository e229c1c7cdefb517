// Shared helpers for the two graph-processing engines.
//
// Thread bodies are coroutines that run ahead of simulated time but are
// held back at barriers (see ThreadCtx::EmitBarrier). All shared
// mutable state below is therefore "epoch-tagged": the first thread to
// touch a structure in a new epoch resets it, which is safe because a
// simulated barrier separates epochs in coroutine execution order too.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "wl/graph/csr.hpp"
#include "wl/workload.hpp"

namespace coperf::wl::graph {

/// The R-MAT graph both engines run at each input size. Like the
/// paper's single friendster input, every graph workload at a size
/// shares one graph (and one rmat_cached entry).
inline GraphSpec spec_for(SizeClass s) {
  switch (s) {
    case SizeClass::Tiny: return GraphSpec{14, 16, 42, true};
    case SizeClass::Small: return GraphSpec{17, 24, 42, true};
    case SizeClass::Native: return GraphSpec{19, 24, 42, true};
  }
  return GraphSpec{};
}

/// Chunked dynamic work queue over [0, total) -- the Gemini-style
/// work-stealing scheduler. Threads pull chunks as their cores consume
/// trace ops, so faster cores take more chunks (real load balancing).
class EpochCursor {
 public:
  explicit EpochCursor(std::uint32_t chunk = 256) : chunk_(chunk) {}

  void set_total(std::uint32_t total) { total_ = total; }
  void set_chunk(std::uint32_t chunk) { chunk_ = chunk; }

  /// Next chunk [begin, end) for `epoch`, or nullopt when exhausted.
  std::optional<std::pair<std::uint32_t, std::uint32_t>> next(
      std::uint64_t epoch) {
    if (epoch != epoch_) {
      epoch_ = epoch;
      pos_ = 0;
    }
    if (pos_ >= total_) return std::nullopt;
    const std::uint32_t begin = pos_;
    const std::uint32_t end =
        begin + chunk_ < total_ ? begin + chunk_ : total_;
    pos_ = end;
    return std::make_pair(begin, end);
  }

  void reset() {
    epoch_ = kNoEpoch;
    pos_ = 0;
  }

 private:
  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};
  std::uint32_t chunk_;
  std::uint32_t total_ = 0;
  std::uint32_t pos_ = 0;
  std::uint64_t epoch_ = kNoEpoch;
};

/// Epoch-tagged counter (e.g. "labels changed this iteration").
/// Writers add() during epoch k; readers read(k) after the barrier that
/// ends epoch k, i.e. during epoch k+1. Two parity slots keep the
/// previous epoch's value readable while the next accumulates.
class ConvergenceFlag {
 public:
  void add(std::uint64_t epoch, std::uint64_t n = 1) {
    Slot& s = slot_[epoch & 1];
    if (s.epoch != epoch) {
      s.epoch = epoch;
      s.count = 0;
    }
    s.count += n;
  }

  std::uint64_t read(std::uint64_t epoch) const {
    const Slot& s = slot_[epoch & 1];
    return s.epoch == epoch ? s.count : 0;
  }

  void reset() { slot_ = {}; }

 private:
  struct Slot {
    std::uint64_t epoch = ~std::uint64_t{0};
    std::uint64_t count = 0;
  };
  std::array<Slot, 2> slot_{};
};

/// Per-epoch frontier queues: frontier(k) is read during epoch k and
/// frontier(k+1) is appended during epoch k.
class FrontierSet {
 public:
  void reset(std::vector<std::uint32_t> initial) {
    levels_.clear();
    levels_.push_back(std::move(initial));
  }

  const std::vector<std::uint32_t>& frontier(std::size_t epoch) {
    ensure(epoch);
    return levels_[epoch];
  }

  void push(std::size_t epoch, std::uint32_t v) {
    ensure(epoch);
    levels_[epoch].push_back(v);
  }

  std::size_t size(std::size_t epoch) {
    ensure(epoch);
    return levels_[epoch].size();
  }

 private:
  void ensure(std::size_t epoch) {
    // deque, not vector-of-vectors: a coroutine holds a reference to
    // frontier(k) across pushes to frontier(k+1); deque growth keeps
    // existing elements stable.
    while (levels_.size() <= epoch) levels_.emplace_back();
  }
  std::deque<std::vector<std::uint32_t>> levels_;
};

/// Static range partition [begin, end) of [0, n) for thread `tid` of
/// `threads` (used for frontiers and flat arrays).
inline std::pair<std::uint32_t, std::uint32_t> static_range(
    std::uint32_t n, unsigned tid, unsigned threads) {
  const std::uint64_t b = std::uint64_t{n} * tid / threads;
  const std::uint64_t e = std::uint64_t{n} * (tid + 1) / threads;
  return {static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(e)};
}

/// Static vertex range balanced by EDGE count: PowerGraph's loader
/// splits vertices so each worker owns ~m/T edges (otherwise R-MAT's
/// hub skew would starve all but one thread).
inline std::pair<std::uint32_t, std::uint32_t> edge_balanced_range(
    std::span<const std::uint64_t> offsets, unsigned tid,
    unsigned threads) {
  const std::uint32_t n = static_cast<std::uint32_t>(offsets.size() - 1);
  const std::uint64_t m = offsets[n];
  const std::uint64_t lo = m * tid / threads;
  const std::uint64_t hi = m * (tid + 1) / threads;
  auto find = [&](std::uint64_t target) {
    return static_cast<std::uint32_t>(
        std::upper_bound(offsets.begin(), offsets.end(), target) -
        offsets.begin() - 1);
  };
  return {find(lo), tid + 1 == threads ? n : find(hi)};
}

}  // namespace coperf::wl::graph
