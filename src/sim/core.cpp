#include "sim/core.hpp"

namespace coperf::sim {

void Core::attach(OpSource* src, AppId app, Cycle at) {
  src_ = src;
  app_ = app;
  attr_ = src->attr();
  window_ = std::min<std::uint32_t>(
      {mem_->config().mshr_per_core, attr_.mlp, kMaxWindow});
  window_ = std::max<std::uint32_t>(window_, 1);
  local_ = std::max(local_, at);
  // `start_` anchors elapsed-cycle accounting; it must not reset when a
  // background app restarts, or per-app CPI would ignore earlier runs.
  if (!ever_attached_) {
    start_ = local_;
    ever_attached_ = true;
  }
  rob_ = mem_->config().rob_instructions;
  region_start_cycle_ = local_;
  state_ = CoreState::Runnable;
  buf_pos_ = buf_len_ = 0;
  ring_head_ = 0;
  ring_size_ = 0;
  pending_watermark_ = local_;
  // Requests never span an attach: a background restart re-attaches at
  // the join cycle and the idle gap must not count as request time.
  last_request_mark_ = local_;
  frac_cycles_ = 0.0;
}

CoreStats Core::snapshot() const {
  CoreStats s = stats_;
  s.cycles = local_ - start_;
  return s;
}

const std::vector<std::pair<std::uint32_t, CoreStats>>& Core::region_stats() {
  flush_region();
  return region_stats_;
}

void Core::flush_region() {
  // Workloads declare a handful of regions, so a sorted flat vector
  // beats a node-based map on both lookup and iteration.
  CoreStats& bucket = sim::region_bucket(region_stats_, cur_region_);
  // A region is charged the counter deltas since the last flush, except
  // for two: cycles come from the local clock below, and barrier waits
  // are not attributed to regions at all.
  for (const CoreStatField& f : kCoreStatFields) {
    if (f.member == &CoreStats::cycles ||
        f.member == &CoreStats::barrier_wait_cycles)
      continue;
    bucket.*f.member += stats_.*f.member - region_snapshot_.*f.member;
  }
  bucket.cycles += local_ - region_start_cycle_;
  region_snapshot_ = stats_;
  region_start_cycle_ = local_;
}

void Core::do_region(std::uint32_t region) {
  if (region == cur_region_) return;
  flush_region();
  cur_region_ = region;
}

void Core::do_request(std::uint32_t count) {
  // A request ends when its slowest outstanding miss arrives, not when
  // the in-order front has merely issued it: take the latest in-flight
  // completion into account (pure observation -- neither local_ nor
  // any counter moves, so batch timing is untouched even if a batch
  // workload ever emitted a mark).
  Cycle end = local_;
  for (std::uint32_t i = 0; i < ring_size_; ++i)
    end = std::max(end, window_ring_[(ring_head_ + i) % kMaxWindow].completion);
  if (count != 0)
    latency_.record(end > last_request_mark_ ? end - last_request_mark_ : 0);
  last_request_mark_ = end;
}

void Core::pending_add(Cycle start, Cycle end) {
  const Cycle s = std::max(start, pending_watermark_);
  if (end > s) {
    stats_.pending_l2_cycles += end - s;
    pending_watermark_ = end;
  }
}

void Core::drain_window() {
  // Retire misses whose data arrived (in issue order).
  while (ring_size_ > 0 &&
         window_ring_[ring_head_].completion <= local_) {
    ring_head_ = (ring_head_ + 1) % kMaxWindow;
    --ring_size_;
  }
  // ROB pressure: the pipeline cannot run more than `rob_` instructions
  // past the oldest unfinished miss -- this is what converts co-run
  // latency inflation into victim slowdown.
  while (ring_size_ > 0 &&
         stats_.instructions - window_ring_[ring_head_].instr_at_issue >=
             rob_) {
    const Cycle completion = window_ring_[ring_head_].completion;
    if (completion > local_) {
      stats_.stall_cycles_mem += completion - local_;
      local_ = completion;
    }
    ring_head_ = (ring_head_ + 1) % kMaxWindow;
    --ring_size_;
  }
  // MSHR/LFB pressure: no more than `window_` misses in flight.
  while (ring_size_ >= window_) {
    const Cycle completion = window_ring_[ring_head_].completion;
    if (completion > local_) {
      stats_.stall_cycles_mem += completion - local_;
      local_ = completion;
    }
    ring_head_ = (ring_head_ + 1) % kMaxWindow;
    --ring_size_;
  }
}

void Core::do_compute(std::uint32_t uops) {
  stats_.instructions += uops;
  frac_cycles_ += static_cast<double>(uops) * attr_.cpi_base;
  if (frac_cycles_ >= 1.0) {
    const auto whole = static_cast<Cycle>(frac_cycles_);
    local_ += whole;
    frac_cycles_ -= static_cast<double>(whole);
  }
  if (ring_size_ > 0) drain_window();  // compute can fill the ROB too
}

void Core::do_mem(const Op& op, bool is_write) {
  ++stats_.instructions;
  if (is_write)
    ++stats_.stores;
  else
    ++stats_.loads;

  // Every memory op occupies an issue slot for one cycle (AGU + port),
  // so even an all-L1-hit instruction stream cannot run in zero time.
  local_ += kIssueCost;

  const AccessOutcome out = mem_->demand_access(
      id_, op.addr, op.pc, is_write, local_, op.dep != Dep::Bypass);
  stats_.prefetches_issued += mem_->last_prefetches();

  switch (out.level) {
    case HitLevel::L1:
      ++stats_.l1d_hits;
      return;  // hit latency folded into base CPI
    case HitLevel::L2:
      ++stats_.l1d_misses;
      ++stats_.l2_hits;
      local_ += (op.dep == Dep::Chain && !is_write) ? out.latency
                                                    : kL2HitOverlapCost;
      return;
    case HitLevel::L3:
      ++stats_.l1d_misses;
      ++stats_.l2_misses;
      ++stats_.l3_hits;
      break;
    case HitLevel::Mem:
      ++stats_.l1d_misses;
      ++stats_.l2_misses;
      ++stats_.l3_misses;
      stats_.bytes_from_mem += kLineBytes;
      break;
  }

  // Past the private L2: either serialize (chain) or overlap (window).
  if (op.dep == Dep::Chain && !is_write) {
    pending_add(local_, local_ + out.latency);
    stats_.stall_cycles_mem += out.latency;
    local_ += out.latency;
    return;
  }
  // The line arrives at an ABSOLUTE time anchored at issue; a stall for
  // window space below must not push the arrival further out.
  const Cycle completes_at = local_ + out.latency;
  drain_window();  // may stall on MSHR or ROB pressure
  pending_add(local_, completes_at);
  window_ring_[(ring_head_ + ring_size_) % kMaxWindow] =
      Miss{completes_at, stats_.instructions};
  ++ring_size_;
}

void Core::exec(const Op& op) {
  switch (op.kind) {
    case OpKind::Compute:
      do_compute(op.count);
      break;
    case OpKind::Load:
      do_mem(op, false);
      break;
    case OpKind::Store:
      do_mem(op, true);
      break;
    case OpKind::Region:
      do_region(op.count);
      break;
    case OpKind::Request:
      do_request(op.count);
      break;
    case OpKind::Barrier: {
      const auto released = sync_->barrier_arrive(id_, local_);
      if (released.has_value()) {
        stats_.barrier_wait_cycles += *released - local_;
        local_ = *released;
        src_->barrier_passed();
      } else {
        state_ = CoreState::Blocked;
      }
      break;
    }
  }
}

void Core::release_barrier(Cycle release_time) {
  stats_.barrier_wait_cycles += release_time > local_ ? release_time - local_ : 0;
  local_ = std::max(local_, release_time);
  state_ = CoreState::Runnable;
  src_->barrier_passed();
}

void Core::run_until(Cycle until) {
  if (state_ != CoreState::Runnable) return;
  while (local_ < until) {
    if (buf_pos_ >= buf_len_) {
      // Prefer the source's zero-copy window; fall back to a copying
      // refill for sources that do not expose one.
      std::size_t n = 0;
      if (const Op* view = src_->refill_view(n); view != nullptr) {
        ops_ = view;
        buf_len_ = n;
      } else {
        buf_len_ = src_->refill(buf_.data(), kBufCap);
        ops_ = buf_.data();
      }
      buf_pos_ = 0;
      if (buf_len_ == 0) {
        flush_region();
        state_ = CoreState::Done;
        return;
      }
    }
    // Batched pump: drain the refilled block through the hierarchy in
    // one tight loop with the cursor and bounds held in locals, instead
    // of round-tripping through the outer refill check per op. Same
    // op-at-a-time semantics (quantum boundary and barrier state are
    // re-checked after every op), one block bookkeeping pass per block.
    const Op* const ops = ops_;
    const std::size_t len = buf_len_;
    std::size_t pos = buf_pos_;
    while (pos < len) {
      exec(ops[pos++]);
      if (state_ != CoreState::Runnable || local_ >= until) break;
    }
    buf_pos_ = pos;
    if (state_ == CoreState::Blocked) return;
  }
}

}  // namespace coperf::sim
