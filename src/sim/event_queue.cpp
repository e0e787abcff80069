#include "sim/event_queue.h"

#include <utility>

namespace ocb::sim {

void EventQueue::heap_push(std::vector<Event>& heap, const Event& e) {
  // 4-ary sift-up: parent of i is (i-1)/4.
  std::size_t i = heap.size();
  heap.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(heap[i], heap[parent])) break;
    std::swap(heap[i], heap[parent]);
    i = parent;
  }
}

Event EventQueue::heap_pop(std::vector<Event>& heap) {
  const Event top = heap.front();
  const Event last = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size();
  if (n > 0) {
    // 4-ary sift-down: children of i are 4i+1 .. 4i+4.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (before(heap[c], heap[best])) best = c;
      }
      if (!before(heap[best], last)) break;
      heap[i] = heap[best];
      i = best;
    }
    heap[i] = last;
  }
  return top;
}

void EventQueue::insert_sorted(Bucket& b, std::uint32_t id) {
  // Rare: an earlier time inside the bucket's 500 ps (sub-bucket jitter),
  // or a smaller seq at the tail's instant.
  const Event& e = nodes_[id].ev;
  std::uint32_t* link = &b.head;
  while (!before(e, nodes_[*link].ev)) link = &nodes_[*link].next;
  nodes_[id].next = *link;
  *link = id;
}

void EventQueue::migrate() {
  while (!overflow_.empty() && due(overflow_.front())) {
    const Event e = heap_pop(overflow_);
    insert(e, (e.t / kBucketWidth) & kMask);
  }
}

}  // namespace ocb::sim
