#include "sim/event_queue.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

namespace evolve::sim {

void EventQueue::heap_push(std::vector<Entry>& h, const Entry& e) {
  h.push_back(e);
  sift_up(h, h.size() - 1);
}

void EventQueue::sift_up(std::vector<Entry>& h, std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(h[i], h[parent])) break;
    std::swap(h[i], h[parent]);
    i = parent;
  }
}

void EventQueue::sift_down(std::vector<Entry>& h, std::size_t i) {
  const std::size_t n = h.size();
  for (;;) {
    std::size_t best = i;
    const std::size_t left = 2 * i + 1;
    const std::size_t right = 2 * i + 2;
    if (left < n && before(h[left], h[best])) best = left;
    if (right < n && before(h[right], h[best])) best = right;
    if (best == i) return;
    std::swap(h[i], h[best]);
    i = best;
  }
}

void EventQueue::heap_remove_top(std::vector<Entry>& h) {
  h.front() = h.back();
  h.pop_back();
  if (!h.empty()) sift_down(h, 0);
}

void EventQueue::place(const Entry& e) {
  ++entry_count_;
  if (e.time < loaded_end_) {  // already inside the loaded band (or past)
    heap_push(current_, e);
    return;
  }
  for (int level = 0; level < kLevels; ++level) {
    if (e.time < window_end(level)) {
      const int rel = static_cast<int>((e.time >> kShift[level]) &
                                       (kBucketsPerLevel - 1));
      occupancy_[level] |= std::uint64_t{1} << rel;
      buckets_[level][rel].push_back(e);
      return;
    }
  }
  heap_push(far_, e);  // beyond the horizon
}

bool EventQueue::advance() {
  // Every physical move below drops cancelled entries on the spot
  // (recycling their slots and destroying their callbacks) instead of
  // hauling dead entries through the remaining levels — in cancel-heavy
  // workloads roughly half of all scheduled timeouts die before their
  // band ever loads.
  const auto dead = [this](const Entry& e) {
    if (slots_[e.slot].live) return false;
    recycle(e.slot);
    --entry_count_;
    return true;
  };
  for (;;) {
    if (occupancy_[0] != 0) {
      const int rel = std::countr_zero(occupancy_[0]);
      occupancy_[0] &= occupancy_[0] - 1;
      const std::int64_t abs_bucket = window_base_[0] + rel;
      loaded_end_ = static_cast<util::TimeNs>(
          static_cast<std::uint64_t>(abs_bucket + 1) << kShift[0]);
      auto& src = buckets_[0][rel];
      bool loaded = false;
      for (const Entry& e : src) {
        if (dead(e)) continue;
        heap_push(current_, e);
        loaded = true;
      }
      src.clear();
      if (loaded) return true;
      continue;  // bucket was all debris; keep advancing
    }
    bool cascaded = false;
    for (int level = 1; level < kLevels; ++level) {
      if (occupancy_[level] == 0) continue;
      const int rel = std::countr_zero(occupancy_[level]);
      occupancy_[level] &= occupancy_[level] - 1;
      const std::int64_t abs_bucket = window_base_[level] + rel;
      // This bucket becomes the whole window one level down.
      window_base_[level - 1] = abs_bucket * kBucketsPerLevel;
      auto& src = buckets_[level][rel];
      for (const Entry& e : src) {
        if (dead(e)) continue;
        const int down = static_cast<int>((e.time >> kShift[level - 1]) &
                                          (kBucketsPerLevel - 1));
        occupancy_[level - 1] |= std::uint64_t{1} << down;
        buckets_[level - 1][down].push_back(e);
      }
      src.clear();
      cascaded = true;
      break;
    }
    if (cascaded) continue;
    if (far_.empty()) return false;
    // Wheel ran dry: jump the top level's window to the earliest far
    // entry and pull everything inside it out of the heap. All far
    // entries are later than every previous window, so this keeps
    // loaded_end_ monotonic.
    window_base_[kLevels - 1] =
        (far_.front().time >> kShift[kLevels - 1]) & ~std::int64_t{63};
    const util::TimeNs horizon = window_end(kLevels - 1);
    while (!far_.empty() && far_.front().time < horizon) {
      const Entry e = far_.front();
      heap_remove_top(far_);
      if (dead(e)) continue;
      const int rel = static_cast<int>((e.time >> kShift[kLevels - 1]) &
                                       (kBucketsPerLevel - 1));
      occupancy_[kLevels - 1] |= std::uint64_t{1} << rel;
      buckets_[kLevels - 1][rel].push_back(e);
    }
  }
}

void EventQueue::settle() {
  for (;;) {
    while (!current_.empty() && !slots_[current_.front().slot].live) {
      recycle(current_.front().slot);
      heap_remove_top(current_);
      --entry_count_;
    }
    if (!current_.empty()) return;
    if (!advance()) return;
  }
}

void EventQueue::purge() {
  auto discard = [this](std::vector<Entry>& v) {
    for (const Entry& e : v) recycle(e.slot);
    v.clear();
  };
  discard(current_);
  discard(far_);
  for (auto& level : buckets_)
    for (auto& bucket : level) discard(bucket);
  occupancy_ = {0, 0, 0, 0};
  window_base_ = {0, 0, 0, 0};
  loaded_end_ = 0;
  entry_count_ = 0;
}

EventId EventQueue::push(util::TimeNs time, EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{});
    fns_.emplace_back();
  }
  Slot& s = slots_[slot];
  ++s.gen;
  s.live = true;
  fns_[slot] = std::move(fn);

  place(Entry{time, next_seq_++, slot});
  ++live_count_;
  return make_id(slot, s.gen);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.live) return false;
  s.live = false;  // entry is reclaimed lazily when it surfaces in settle()
  --live_count_;
  // Everything left is cancelled: reclaim in bulk so slots recycle
  // promptly even for events that were banked deep in the wheel.
  if (live_count_ == 0) purge();
  return true;
}

util::TimeNs EventQueue::next_time() const {
  // Reclamation does not change the observable queue state, so the const
  // observer shares the same drain path as pop().
  const_cast<EventQueue*>(this)->settle();
  if (current_.empty()) throw std::logic_error("EventQueue::next_time on empty");
  return current_.front().time;
}

Event EventQueue::pop() {
  settle();
  if (current_.empty()) throw std::logic_error("EventQueue::pop on empty");
  const Entry& top = current_.front();
  Event event{top.time, make_id(top.slot, slots_[top.slot].gen),
              std::move(fns_[top.slot])};
  recycle(top.slot);
  heap_remove_top(current_);
  --entry_count_;
  --live_count_;
  return event;
}

}  // namespace evolve::sim
