#include "reference/ref_event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace evolve::sim {

RefEventId RefEventQueue::push(util::TimeNs time, RefEventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{});
  }
  Slot& s = slots_[slot];
  ++s.gen;
  s.live = true;

  heap_.push_back(Entry{time, next_seq_++, slot, std::move(fn)});
  sift_up(heap_.size() - 1);
  ++live_count_;
  return make_id(slot, s.gen);
}

bool RefEventQueue::cancel(RefEventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.live) return false;
  s.live = false;
  --live_count_;
  return true;
}

void RefEventQueue::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(heap_[i], heap_[parent])) return;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void RefEventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t best = i;
    const std::size_t left = 2 * i + 1;
    const std::size_t right = 2 * i + 2;
    if (left < n && before(heap_[left], heap_[best])) best = left;
    if (right < n && before(heap_[right], heap_[best])) best = right;
    if (best == i) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void RefEventQueue::remove_top() {
  heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void RefEventQueue::drop_dead_head() const {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (slots_[top.slot].live) return;
    free_slots_.push_back(top.slot);
    const_cast<RefEventQueue*>(this)->remove_top();
  }
}

util::TimeNs RefEventQueue::next_time() const {
  drop_dead_head();
  if (heap_.empty())
    throw std::logic_error("RefEventQueue::next_time on empty");
  return heap_.front().time;
}

RefEvent RefEventQueue::pop() {
  drop_dead_head();
  if (heap_.empty()) throw std::logic_error("RefEventQueue::pop on empty");
  Entry& top = heap_.front();
  Slot& s = slots_[top.slot];
  RefEvent event{top.time, make_id(top.slot, s.gen), std::move(top.fn)};
  s.live = false;
  free_slots_.push_back(top.slot);
  remove_top();
  --live_count_;
  return event;
}

}  // namespace evolve::sim
