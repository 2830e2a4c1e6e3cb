// FIFO ring buffer with indexed access and indexed erase.
//
// A replica's request queue is a FIFO that batching also erases from the
// middle; sliding windows and park lists are plain FIFOs. std::deque
// fits both shapes but allocates and frees one block for every few
// elements that stream through it. RingQueue keeps its elements in one
// power-of-two ring that doubles when full and never shrinks, so once a
// queue has reached its peak depth, pushing, popping, indexing and
// erasing allocate nothing.
//
// Erase keeps the order of the remaining elements and, like std::deque,
// shifts whichever side of the gap is shorter. T is a plain value type:
// vacated slots are not reset.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

namespace evolve::util {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;
  RingQueue(std::initializer_list<T> items) {
    for (const T& item : items) push_back(item);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    (*this)[size_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  /// Removes the element at `index`; later elements keep their order.
  void erase(std::size_t index) {
    if (index < size_ / 2) {
      for (std::size_t k = index; k > 0; --k) {
        (*this)[k] = std::move((*this)[k - 1]);
      }
      head_ = (head_ + 1) & (buf_.size() - 1);
    } else {
      for (std::size_t k = index; k + 1 < size_; ++k) {
        (*this)[k] = std::move((*this)[k + 1]);
      }
    }
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    std::vector<T> bigger(buf_.empty() ? 8 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace evolve::util
