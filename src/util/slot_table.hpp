// Index-addressed pool: one vector of slots plus a free list.
//
// A record that lives across several events (a tablet op between its
// request and its response, a client op across its retries) used to
// travel inside each event's capture, so every hop moved it and any
// capture past SmallFn's inline budget allocated. A SlotTable keeps the
// record in place and the events carry its 32-bit index instead.
// Released slots are reused last-in first-out, so once the table has
// reached a workload's peak count of live records, acquiring and
// releasing allocate nothing.
//
// Indices, not references, are what callers keep: acquire() may grow
// the vector and move every slot, so no reference into the table may be
// held across a call that can acquire. Slot order and reuse order never
// reach the simulation, which only ever looks a record up by index.
// Unlike util::Slab, which hands out stable pointers, a SlotTable hands
// out 32-bit indices (half a pointer in a capture) and destroys every
// record, live or released, with the table.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace evolve::util {

template <typename T>
class SlotTable {
 public:
  using Id = std::uint32_t;

  /// Stores `value` in a free slot (reusing the last released one) and
  /// returns its index.
  Id acquire(T value) {
    if (free_.empty()) {
      slots_.push_back(std::move(value));
      return static_cast<Id>(slots_.size() - 1);
    }
    const Id id = free_.back();
    free_.pop_back();
    slots_[id] = std::move(value);
    return id;
  }

  /// Returns slot `id` to the free list. Its value stays in place until
  /// the slot is reused; move out what must outlive it first.
  void release(Id id) { free_.push_back(id); }

  T& operator[](Id id) { return slots_[id]; }

 private:
  std::vector<T> slots_;
  std::vector<Id> free_;
};

}  // namespace evolve::util
