// Open-addressing hash map from 64-bit ids to small values.
//
// The hot-path indexes (fabric flows and endpoint-pair groups, serve
// in-flight requests) are keyed by integer ids, probed on every event and
// erased as often as they are inserted. A node-based std::unordered_map
// pays one malloc and one free per insert/erase pair; FlatIdMap keeps
// every entry in one flat slot array, so once the table has grown to a
// workload's peak size, inserting and erasing allocate nothing.
//
//  * Linear probing over a power-of-two table, Fibonacci-hashed, so
//    sequential ids and packed (src, dst) pairs spread evenly.
//  * Occupancy is a per-slot flag, not a reserved key: every 64-bit key,
//    ~0 included, is a valid id.
//  * Erase uses backward-shift deletion (no tombstones): later entries of
//    the probe run move back into the hole, so lookups never slow down
//    with churn and the table never needs a cleanup rehash.
//  * The table grows (doubles) at 3/4 load and never shrinks.
//
// Iteration order is the table order, which depends on the hash and on
// insertion history; callers must not let it decide simulated behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace evolve::util {

template <typename V>
class FlatIdMap {
 public:
  using Key = std::uint64_t;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  V* find(Key key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.full) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  const V* find(Key key) const {
    return const_cast<FlatIdMap*>(this)->find(key);
  }

  /// Inserts `key` -> `value` unless `key` is present. Returns the stored
  /// value and whether it was inserted. The pointer is valid until the
  /// next insert or erase.
  std::pair<V*, bool> try_emplace(Key key, V value) {
    if (V* existing = find(key)) return {existing, false};
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    return {place(key, std::move(value)), true};
  }

  /// Removes `key`; returns false when it was absent.
  bool erase(Key key) {
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (!slots_[hole].full) return false;
      if (slots_[hole].key == key) break;
    }
    // Backward shift: an entry further along the run moves into the hole
    // when the hole lies between its home slot and its current slot.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].full;
         j = (j + 1) & mask_) {
      const std::size_t from_home = (j - home(slots_[j].key)) & mask_;
      const std::size_t from_hole = (j - hole) & mask_;
      if (from_hole <= from_home) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].full = false;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

  /// Calls fn(key, value) for every entry, in table order.
  template <typename F>
  void for_each(F&& fn) {
    for (Slot& s : slots_) {
      if (s.full) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    Key key = 0;
    bool full = false;
    V value{};
  };

  std::size_t home(Key key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Stores an absent key in the first free slot of its probe run.
  V* place(Key key, V value) {
    std::size_t i = home(key);
    while (slots_[i].full) i = (i + 1) & mask_;
    Slot& s = slots_[i];
    s.key = key;
    s.full = true;
    s.value = std::move(value);
    ++size_;
    return &s.value;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? 16 : old.size() * 2;
    slots_ = std::vector<Slot>(capacity);
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    size_ = 0;
    for (Slot& s : old) {
      if (s.full) place(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace evolve::util
