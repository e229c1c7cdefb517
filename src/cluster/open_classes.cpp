#include "cluster/open_classes.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace coperf::cluster {

void IndexedHeap::update(std::uint32_t id, double key,
                         std::vector<std::uint32_t>& pos) {
  std::size_t i = pos[id];
  if (i == kAbsent) {
    i = heap_.size();
    heap_.push_back({key, id});
  } else {
    heap_[i].key = key;
  }
  sift(i, pos);
}

void IndexedHeap::erase(std::uint32_t id, std::vector<std::uint32_t>& pos) {
  const std::size_t i = pos[id];
  if (i == kAbsent) return;
  pos[id] = kAbsent;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  put(i, last, pos);
  sift(i, pos);
}

void IndexedHeap::put(std::size_t i, const Entry& e,
                      std::vector<std::uint32_t>& pos) {
  heap_[i] = e;
  pos[e.id] = static_cast<std::uint32_t>(i);
}

/// Moves the entry in slot i up or down to its place.
void IndexedHeap::sift(std::size_t i, std::vector<std::uint32_t>& pos) {
  const Entry e = heap_[i];
  while (i > 0 && before(e, heap_[(i - 1) / kArity])) {
    put(i, heap_[(i - 1) / kArity], pos);
    i = (i - 1) / kArity;
  }
  const std::size_t n = heap_.size();
  for (std::size_t first = kArity * i + 1; first < n;
       first = kArity * i + 1) {
    std::size_t c = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t k = first + 1; k < end; ++k)
      if (before(heap_[k], heap_[c])) c = k;
    if (!before(heap_[c], e)) break;
    put(i, heap_[c], pos);
    i = c;
  }
  put(i, e, pos);
}

namespace {

constexpr std::uint32_t kAbsent = IndexedHeap::kAbsent;

/// view() reports a resident's remaining work as max(0, remaining -
/// (now - upd) / slowdown), and its eta is upd + remaining * slowdown:
/// in real arithmetic the first is (eta - now) / slowdown. Each float
/// path rounds at most three times, so with eta, now >= 0 the two
/// differ by at most 9 unit roundoffs (2^-53) of (eta + now) /
/// slowdown, and the bound's own arithmetic rounds by under 4 more. A
/// slack of 2^-40 of (eta + now) covers both over 500 times.
constexpr double kSlack = 0x1p-40;

}  // namespace

OpenClasses::OpenClasses(std::size_t machines, std::size_t slots,
                         const double& now)
    : now_(now),
      class_of_(machines, kAbsent),
      member_pos_(machines, kAbsent),
      // An open machine holds at most slots - 1 residents.
      soonest_pos_(slots - 1, std::vector<std::uint32_t>(machines, kAbsent)),
      latest_pos_(slots - 1, std::vector<std::uint32_t>(machines, kAbsent)) {
  classes_.emplace_back();
}

std::uint32_t OpenClasses::child(std::uint32_t parent, std::uint32_t type) {
  // The simulator bounds the truth axis to 65536 types.
  const std::uint64_t key = (std::uint64_t{parent} << 16) | type;
  const auto [it, made] =
      children_.try_emplace(key, static_cast<std::uint32_t>(classes_.size()));
  if (made) {
    Class c;
    c.types = classes_[parent].types;
    c.types.push_back(type);
    const std::size_t n = c.types.size();
    c.slowdown.assign(n, std::numeric_limits<double>::quiet_NaN());
    c.soonest.resize(n);
    c.latest.resize(n);
    classes_.push_back(std::move(c));
  }
  return it->second;
}

void OpenClasses::join(std::size_t m, std::uint32_t c) {
  Class& cls = classes_[c];
  if (cls.members.empty()) {
    cls.live_at = static_cast<std::uint32_t>(live_.size());
    live_.push_back(c);
  }
  class_of_[m] = c;
  cls.members.update(static_cast<std::uint32_t>(m), 0.0, member_pos_);
}

void OpenClasses::keep(std::size_t m, std::uint32_t c, std::size_t slot,
                       double eta, double slowdown) {
  Class& cls = classes_[c];
  const auto id = static_cast<std::uint32_t>(m);
  cls.soonest[slot].update(id, eta, soonest_pos_[slot]);
  cls.latest[slot].update(id, -eta, latest_pos_[slot]);
  double& rate = cls.slowdown[slot];
  if (std::isnan(rate)) rate = slowdown;
  const bool sound = slowdown == rate && std::isfinite(slowdown) &&
                     slowdown > 0.0 && std::isfinite(eta);
  if (!sound && cls.ordered) {
    cls.ordered = false;
    ++unordered_;
  }
}

void OpenClasses::erase(std::size_t m) {
  const std::uint32_t c = class_of_[m];
  if (c == kAbsent) return;
  class_of_[m] = kAbsent;
  Class& cls = classes_[c];
  const auto id = static_cast<std::uint32_t>(m);
  cls.members.erase(id, member_pos_);
  for (std::size_t slot = 0; slot < cls.types.size(); ++slot) {
    cls.soonest[slot].erase(id, soonest_pos_[slot]);
    cls.latest[slot].erase(id, latest_pos_[slot]);
  }
  if (!cls.members.empty()) return;
  // The class is empty: off the live list, and its rates start over.
  const std::uint32_t moved = live_.back();
  live_[cls.live_at] = moved;
  classes_[moved].live_at = cls.live_at;
  live_.pop_back();
  cls.live_at = kAbsent;
  std::fill(cls.slowdown.begin(), cls.slowdown.end(),
            std::numeric_limits<double>::quiet_NaN());
  if (!cls.ordered) {
    cls.ordered = true;
    --unordered_;
  }
}

double OpenClasses::lower(double eta, double slowdown) const {
  return std::max(0.0, ((eta - now_) - kSlack * (eta + now_)) / slowdown);
}

double OpenClasses::upper(double eta, double slowdown) const {
  return std::max(0.0, ((eta - now_) + kSlack * (eta + now_)) / slowdown);
}

std::pair<double, double> OpenClasses::remaining(std::uint32_t c,
                                                 std::size_t slot) const {
  const Class& cls = classes_[c];
  const double rate = cls.slowdown[slot];
  return {lower(cls.soonest[slot].top().key, rate),
          upper(-cls.latest[slot].top().key, rate)};
}

OpenClasses::Walk OpenClasses::walk(std::uint32_t c, std::size_t slot,
                                    bool ascending) const {
  const Class& cls = classes_[c];
  return Walk{*this,
              (ascending ? cls.soonest : cls.latest)[slot].entries(),
              cls.slowdown[slot], ascending};
}

OpenClasses::Walk::Walk(const OpenClasses& index,
                        const IndexedHeap::Entries& heap,
                        double slowdown, bool ascending)
    : index_(index), heap_(heap), slowdown_(slowdown), ascending_(ascending) {
  index_.frontier_.clear();
  if (!heap_.empty()) index_.frontier_.push_back(0);
}

bool OpenClasses::Walk::next(std::size_t& machine, double& remaining) {
  // Best-first over the heap array: the least entry not yet yielded is
  // always a child of one already yielded (or the root).
  std::vector<std::uint32_t>& frontier = index_.frontier_;
  if (frontier.empty()) return false;
  const auto later = [this](std::uint32_t a, std::uint32_t b) {
    return IndexedHeap::before(heap_[b], heap_[a]);
  };
  std::pop_heap(frontier.begin(), frontier.end(), later);
  const std::uint32_t at = frontier.back();
  frontier.pop_back();
  const std::size_t first = IndexedHeap::kArity * at + 1;
  const std::size_t end = std::min(first + IndexedHeap::kArity, heap_.size());
  for (std::size_t kid = first; kid < end; ++kid) {
    frontier.push_back(static_cast<std::uint32_t>(kid));
    std::push_heap(frontier.begin(), frontier.end(), later);
  }
  const IndexedHeap::Entry& e = heap_[at];
  machine = e.id;
  remaining = ascending_ ? index_.lower(e.key, slowdown_)
                         : index_.upper(-e.key, slowdown_);
  return true;
}

}  // namespace coperf::cluster
