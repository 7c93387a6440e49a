// Reference event queue for the timer-wheel lockstep tests.
//
// A plain std::push_heap min-heap over (when, id) with the same lazy
// cancellation contract as sim::TimerWheelQueue: the caller's live set is
// the authority, dead entries are dropped when reached, and they are
// compacted away once they dominate. Its order is trivially the global
// (when, id) order, which is what makes it a useful oracle: the wheel must
// pop exactly the same sequence for every workload. It keeps its own
// comparator so a change to the wheel's cannot move both sides at once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace ph::sim {

class BinaryHeapQueue {
 public:
  explicit BinaryHeapQueue(const FlatIdSet& live) : live_(live) {}
  BinaryHeapQueue(const BinaryHeapQueue&) = delete;
  BinaryHeapQueue& operator=(const BinaryHeapQueue&) = delete;

  void push(Time when, EventId id, EventFn fn, std::uint8_t tag = 0) {
    heap_.push_back(QueueEntry{when, id, tag, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  bool pop_next(Time until, QueueEntry& out) {
    while (!heap_.empty()) {
      if (!live_.contains(heap_.front().id)) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
        if (dead_ > 0) --dead_;
        continue;
      }
      if (heap_.front().when > until) return false;
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      out = std::move(heap_.back());
      heap_.pop_back();
      return true;
    }
    return false;
  }

  void note_cancelled() {
    ++dead_;
    if (dead_ >= 32 && dead_ * 2 >= heap_.size()) compact();
  }

  std::size_t stored() const noexcept { return heap_.size(); }
  std::size_t dead() const noexcept { return dead_; }

 private:
  /// Puts the earliest (when, id) on top of std::push_heap's max-heap.
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };

  void compact() {
    std::erase_if(heap_,
                  [this](const QueueEntry& e) { return !live_.contains(e.id); });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    dead_ = 0;
  }

  const FlatIdSet& live_;
  std::size_t dead_ = 0;
  std::vector<QueueEntry> heap_;
};

}  // namespace ph::sim
