// The class index behind fast placement (cluster subsystem).
//
// Machines whose residents form the same type multiset share every
// slowdown. Keyed by the types in slot order as well, they also share
// the truth's exact answers and placement_delta's order of float
// operations: only the residents' remaining work tells two members
// apart, and the price is monotone in each resident's remaining work.
// So a class's bound needs slack only for remaining work, never for
// summation order (8 types give 9 classes at 2 slots, 73 at 3).
// OpenClasses groups the open machines of a fleet that way. Per class
// it keeps the members by index (for the lowest-index tie-break) and,
// per slot, by remaining work in both directions, so a policy can
// bound a whole class by its extreme members and re-price exactly only
// the machines that could still win. The simulator keeps one current
// from its resident-set edits and hands it out through
// ClusterView::open_classes().
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/mapped.hpp"

namespace coperf::cluster {

/// A 4-ary min-heap of (key, id) entries, ties to the lower id, that
/// records each entry's heap position in a caller-owned handle array
/// (`pos[id]`), so an entry is re-keyed or erased in place. Heaps that
/// never hold the same id at once may share one handle array. Four
/// children per entry halve a binary heap's depth, and a sibling group
/// spans at most two cache lines, so a sift touches fewer lines; the
/// engine's completion heap and every class heap use it.
class IndexedHeap {
 public:
  struct Entry {
    double key = 0.0;
    std::uint32_t id = 0;
  };
  /// One entry per machine at most: mapped from 1 MiB on, as the
  /// engine's other per-machine blocks are (util/mapped.hpp).
  using Entries = std::vector<Entry, util::MappedAllocator<Entry>>;
  /// The handle of an id that is in no heap.
  static constexpr std::uint32_t kAbsent = UINT32_MAX;
  /// Children per entry: entry i's are kArity * i + 1 through
  /// kArity * i + kArity, and its parent is (i - 1) / kArity.
  static constexpr std::size_t kArity = 4;

  static bool before(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Entry& top() const { return heap_.front(); }
  /// The heap array itself, laid out as kArity describes.
  const Entries& entries() const { return heap_; }

  /// Keys `id` at `key`, inserting it if absent.
  void update(std::uint32_t id, double key, std::vector<std::uint32_t>& pos);
  /// Drops `id`'s entry, if it has one.
  void erase(std::uint32_t id, std::vector<std::uint32_t>& pos);

 private:
  void put(std::size_t i, const Entry& e, std::vector<std::uint32_t>& pos);
  void sift(std::size_t i, std::vector<std::uint32_t>& pos);

  Entries heap_;
};

/// The open machines of a fleet, grouped by the types of their
/// residents in slot order (the empty machines form one class). A
/// member's residents are keyed by their completion time `eta` at
/// their current rate, which fixes their order by remaining work until
/// the machine's resident set changes, and every member of a class
/// drains a slot's resident at the same rate.
class OpenClasses {
 public:
  /// `now` is the clock remaining work is read at: the simulator's.
  OpenClasses(std::size_t machines, std::size_t slots, const double& now);
  OpenClasses(const OpenClasses&) = delete;

  // --- upkeep (the simulator) ----------------------------------------

  /// False until the simulator first hands the index out: until then
  /// it holds nothing and the simulator skips its upkeep, so a policy
  /// that never asks for it pays nothing.
  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }

  /// Adds open machine m, whose residents (each with `type`, `eta` and
  /// `slowdown`, in slot order) were just re-rated.
  template <class Residents>
  void insert(std::size_t m, const Residents& residents) {
    std::uint32_t c = 0;
    for (const auto& r : residents) c = child(c, r.type);
    join(m, c);
    std::size_t slot = 0;
    for (const auto& r : residents) keep(m, c, slot++, r.eta, r.slowdown);
  }
  /// Drops machine m, if it is a member.
  void erase(std::size_t m);

  // --- queries (the policies) ----------------------------------------

  /// Ids of the classes with at least one member, in no fixed order.
  const std::vector<std::uint32_t>& live() const { return live_; }
  /// Class c's resident types in slot order.
  const std::vector<std::uint32_t>& types(std::uint32_t c) const {
    return classes_[c].types;
  }
  /// Class c's lowest-index member.
  std::size_t lowest(std::uint32_t c) const {
    return classes_[c].members.top().id;
  }
  /// Class c's member count.
  std::size_t size(std::uint32_t c) const { return classes_[c].members.size(); }
  /// Machine m's class; IndexedHeap::kAbsent when m is not a member
  /// (or not a machine at all).
  std::uint32_t class_of(std::size_t m) const {
    return m < class_of_.size() ? class_of_[m] : IndexedHeap::kAbsent;
  }
  /// False when some live class has a slot whose residents do not all
  /// drain at one finite rate (a truth that answers the same group
  /// differently): remaining-work bounds are then unsound, and a
  /// policy must price every machine.
  bool ordered() const { return unordered_ == 0; }
  /// Bounds on the remaining work of slot `slot`'s resident over all
  /// of class c's members, as ClusterView::view() reports it now:
  /// {at most the least, at least the most}.
  std::pair<double, double> remaining(std::uint32_t c, std::size_t slot) const;

  /// Class c's members in order of slot `slot`'s remaining work, least
  /// first (`ascending`) or most first. next() yields each member once
  /// with a bound on that slot's remaining work that holds for it and
  /// for every member after it: a lower bound ascending, an upper one
  /// descending. One walk at a time: a new walk reuses the scratch.
  class Walk {
   public:
    bool next(std::size_t& machine, double& remaining);

   private:
    friend class OpenClasses;
    Walk(const OpenClasses& index, const IndexedHeap::Entries& heap,
         double slowdown, bool ascending);

    const OpenClasses& index_;
    const IndexedHeap::Entries& heap_;
    double slowdown_;
    bool ascending_;
  };
  Walk walk(std::uint32_t c, std::size_t slot, bool ascending) const;

 private:
  struct Class {
    std::vector<std::uint32_t> types;
    /// Per slot: the rate its residents drain at (NaN before the
    /// first member), and its residents by eta and by -eta.
    std::vector<double> slowdown;
    std::vector<IndexedHeap> soonest, latest;
    IndexedHeap members;  ///< every key 0, so by machine index
    bool ordered = true;
    std::uint32_t live_at = IndexedHeap::kAbsent;  ///< position in live_
  };

  /// The class of `parent`'s types followed by `type`, made on first
  /// use.
  std::uint32_t child(std::uint32_t parent, std::uint32_t type);
  void join(std::size_t m, std::uint32_t c);
  void keep(std::size_t m, std::uint32_t c, std::size_t slot, double eta,
            double slowdown);
  /// Remaining-work bounds of a resident keyed at `eta` and draining
  /// at `slowdown`.
  double lower(double eta, double slowdown) const;
  double upper(double eta, double slowdown) const;

  const double& now_;
  bool enabled_ = false;
  std::vector<Class> classes_;  ///< classes_[0]: the empty machines
  std::unordered_map<std::uint64_t, std::uint32_t> children_;
  std::vector<std::uint32_t> live_;
  std::size_t unordered_ = 0;  ///< live classes with ordered == false
  /// Per machine: its class (kAbsent when not a member) and its handle
  /// in that class's `members`; per slot, its handles in `soonest` and
  /// `latest`.
  std::vector<std::uint32_t> class_of_, member_pos_;
  std::vector<std::vector<std::uint32_t>> soonest_pos_, latest_pos_;
  /// The walk's frontier: heap positions, itself a binary heap
  /// (std::push_heap).
  mutable std::vector<std::uint32_t> frontier_;
};

}  // namespace coperf::cluster
