// Priority queue of timestamped events with stable FIFO ordering for ties
// and O(log n) cancellation — implemented as a hierarchical timing-wheel
// calendar queue so push/pop are O(1) amortized at scale.
//
// Layout, nearest first:
//
//   current_  min-heap of the currently loaded band: every live entry with
//             time < loaded_end_. Pops come from here only, so the heap
//             stays tiny (one bucket's worth of events) and its top is
//             always the global (time, seq) minimum.
//   wheel     4 levels x 64 buckets, level-l bucket width 2^(10+6l) ns
//             (1.024us, 65.5us, 4.19ms, 268ms). A push lands in the finest
//             level whose active window covers its time; draining a
//             level-l bucket scatters it one level down, and the final
//             scatter feeds current_. Per-level uint64 occupancy bitmaps
//             make "find next non-empty bucket" a single countr_zero.
//   far_      min-heap for anything past the wheel horizon (~17s out);
//             refilled into level 3 when the wheel drains dry.
//
// Because every wheel/far entry is strictly later than loaded_end_ and
// bands advance only when current_ is empty, the pop sequence is the exact
// global (time, seq) order — bit-identical to the old binary heap.
//
// Cancellation is a generation-counted slot vector: cancel() flips one
// flag, and dead entries are physically reclaimed by settle() when they
// surface at the head of current_ (the one shared drain path for both
// next_time() and pop()), or wholesale by purge() the moment the live
// count hits zero.
//
// Entries carry no callback: an Entry is {time, seq, slot}, 24 trivially
// copyable bytes, and the callback (a util::SmallFn<void()>, captures up
// to 48 bytes inline, so no per-event heap allocation on the common
// capture sizes) is stored once, by slot, in fns_ beside slots_, so a
// move through the wheel or a heap swap copies only the 24 bytes. pop()
// moves the callback out of its slot and recycle() destroys what is
// left, so a cancelled callback is destroyed when its entry is
// reclaimed.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/small_fn.hpp"
#include "util/types.hpp"

namespace evolve::sim {

using EventId = std::uint64_t;
using EventFn = util::SmallFn<void()>;

/// One scheduled callback. Ordering: earlier time first, then schedule
/// order, so same-time events run FIFO — this makes the whole simulation
/// deterministic.
struct Event {
  util::TimeNs time = 0;
  EventId id = 0;
  EventFn fn;
};

class EventQueue {
 public:
  /// Enqueues `fn` at absolute time `time`; returns a handle for cancel().
  EventId push(util::TimeNs time, EventFn fn);

  /// Marks an event as cancelled; it will be skipped when popped.
  /// Returns false if the event already ran or was already cancelled.
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_count_ == 0; }

  /// Number of live events.
  std::size_t size() const { return live_count_; }

  /// Time of the earliest live event. Requires !empty().
  util::TimeNs next_time() const;

  /// Removes and returns the earliest live event. Requires !empty().
  Event pop();

  /// Cancellation slots ever created (introspection for tests).
  std::size_t slot_count() const { return slots_.size(); }

 private:
  static constexpr int kLevels = 4;
  static constexpr int kBucketsPerLevel = 64;
  /// Level-l bucket covers 2^kShift[l] ns.
  static constexpr std::array<int, kLevels> kShift = {10, 16, 22, 28};

  // The 4 padding bytes after `slot` are free for a future per-entry tag.
  struct Entry {
    util::TimeNs time;
    std::uint64_t seq;   // monotonic schedule order; breaks time ties FIFO
    std::uint32_t slot;  // index into slots_ and fns_
  };
  static_assert(sizeof(Entry) == 24 && std::is_trivially_copyable_v<Entry>);
  // A slot is owned by exactly one entry from push() until that entry is
  // physically reclaimed; only then is it recycled (generation bump + free
  // list), so a stale EventId can never alias a newer event.
  struct Slot {
    std::uint32_t gen = 0;
    bool live = false;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Binary min-heap primitives shared by current_ and far_.
  static void heap_push(std::vector<Entry>& h, const Entry& e);
  static void heap_remove_top(std::vector<Entry>& h);
  static void sift_up(std::vector<Entry>& h, std::size_t i);
  static void sift_down(std::vector<Entry>& h, std::size_t i);

  /// End of level l's active window: first time not representable there.
  util::TimeNs window_end(int level) const {
    return static_cast<util::TimeNs>(
        static_cast<std::uint64_t>(window_base_[level] + kBucketsPerLevel)
        << kShift[level]);
  }

  /// Routes a new entry to current_, a wheel bucket, or far_.
  void place(const Entry& e);
  /// Loads the next occupied band into current_ (cascading wheel levels
  /// and refilling from far_ as needed). False if nothing remains.
  bool advance();
  /// The one shared reclamation path: drains cancelled entries off the
  /// head of current_, recycling their slots, and advances bands until a
  /// live head surfaces or the queue is physically empty.
  void settle();
  /// Physically discards every entry (all are cancelled) and recycles
  /// their slots; resets the wheel to its initial windows.
  void purge();
  void recycle(std::uint32_t slot) {
    slots_[slot].live = false;
    fns_[slot] = nullptr;
    free_slots_.push_back(slot);
  }

  std::vector<Entry> current_;  // min-heap by (time, seq); the loaded band
  std::vector<Entry> far_;      // min-heap; beyond the wheel horizon
  std::array<std::array<std::vector<Entry>, kBucketsPerLevel>, kLevels>
      buckets_;
  std::array<std::uint64_t, kLevels> occupancy_ = {0, 0, 0, 0};
  // Absolute index (in level-l bucket units) of each level's window start.
  // Invariant: the bucket currently draining at level l lies inside level
  // l+1's window, so placement never needs more than one window per level.
  std::array<std::int64_t, kLevels> window_base_ = {0, 0, 0, 0};
  // All entries with time < loaded_end_ are in current_; everything in the
  // wheel or far_ is at loaded_end_ or later. Grows monotonically (until a
  // purge of an all-cancelled queue, which is unobservable).
  util::TimeNs loaded_end_ = 0;

  std::vector<Slot> slots_;
  std::vector<EventFn> fns_;  // by slot; empty once the slot is recycled
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::size_t entry_count_ = 0;  // physical entries incl. cancelled
};

}  // namespace evolve::sim
