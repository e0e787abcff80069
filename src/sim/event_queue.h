// The serial event queue: a bucketed time wheel in exact (t, seq) order.
//
// Nearly every simulated delay is built from a handful of cost-model
// constants (5 ns hops, 10 ns port occupancy, 116 ns and 451 ns core
// overheads), so the pending set is close to a few time-sorted FIFOs that
// all end within a microsecond of now. The wheel exploits that:
//
//  - 2048 buckets, each 500 ps wide, cover the window of bucket numbers
//    [base, base + 2048), where base is the bucket of the last popped
//    event. Bucket number n lives in slot n % 2048.
//  - Each bucket is a (t, seq)-sorted singly linked list over one node
//    slab. Engine events arrive with increasing seq and mostly increasing
//    t within a bucket, so a push is almost always an O(1) tail append.
//  - A 2048-bit occupancy bitmap plus a 32-bit summary of its non-empty
//    words finds the next occupied slot with two count-trailing-zeros.
//  - Events beyond the window wait in a 4-ary heap (the overflow store).
//    Whenever base advances, overflow events the window now covers move
//    into their buckets; when the wheel is empty, base jumps to the
//    overflow minimum.
//
// Every overflow event is later than every wheel event, slots are visited
// in bucket-number order from base, and each bucket is sorted, so pop()
// returns the (t, seq) minimum: exactly the sequence a single heap pops.
// DESIGN.md "Event queue" has the measured delay table behind the sizes.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace ocb::sim {

/// One scheduled event (32 bytes). fn == nullptr means `ptr` is a coroutine
/// to resume, else fn(ptr) is called. `seq`, the engine's insertion
/// counter, breaks same-instant ties.
struct Event {
  Time t;
  std::uint64_t seq;
  void* ptr;
  void (*fn)(void*);
};

/// The total order the queue pops in.
inline bool before(const Event& a, const Event& b) {
  return a.t != b.t ? a.t < b.t : a.seq < b.seq;
}

class EventQueue {
 public:
  static constexpr std::size_t kBuckets = 2048;
  static constexpr Duration kBucketWidth = 500 * kPicosecond;

  /// Queues `e`. Its time must not precede the last popped event's.
  void push(const Event& e);

  /// Removes and returns the (t, seq) minimum. Requires !empty().
  Event pop();

  bool empty() const { return size_ == 0; }

  /// Pending events, overflow included.
  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::size_t kMask = kBuckets - 1;
  static constexpr std::size_t kWords = kBuckets / 64;

  struct Node {
    Event ev;
    std::uint32_t next;
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// 4-ary implicit min-heap over (t, seq): the overflow store.
  static void heap_push(std::vector<Event>& heap, const Event& e);
  static Event heap_pop(std::vector<Event>& heap);

  void insert(const Event& e, std::size_t slot);
  void insert_sorted(Bucket& b, std::uint32_t id);
  /// True if `e`'s bucket lies inside the window.
  bool due(const Event& e) const { return e.t / kBucketWidth - base_ < kBuckets; }
  /// Moves every due overflow event into its bucket.
  void migrate();
  std::size_t next_occupied(std::size_t from) const;

  std::uint64_t base_ = 0;  ///< bucket number of the window's first slot
  std::size_t size_ = 0;
  std::uint32_t free_ = kNil;  ///< free-list head in nodes_
  std::uint64_t summary_ = 0;  ///< bit w set iff occupied_[w] != 0
  std::array<std::uint64_t, kWords> occupied_{};
  std::array<Bucket, kBuckets> buckets_;
  std::vector<Node> nodes_;
  std::vector<Event> overflow_;
};

// The hot paths are inline: every simulated event is one push and one pop.

inline void EventQueue::push(const Event& e) {
  ++size_;
  const std::uint64_t bucket = e.t / kBucketWidth;
  if (bucket - base_ >= kBuckets) [[unlikely]] {
    heap_push(overflow_, e);
    return;
  }
  insert(e, bucket & kMask);
}

inline Event EventQueue::pop() {
  if (summary_ == 0) [[unlikely]] {
    // Only overflow events remain: jump the window to the earliest.
    base_ = overflow_.front().t / kBucketWidth;
    migrate();
  }
  const std::size_t start = base_ & kMask;
  const std::size_t slot = next_occupied(start);
  if (slot != start) {
    base_ += (slot - start) & kMask;
    if (!overflow_.empty() && due(overflow_.front())) migrate();
  }
  Bucket& b = buckets_[slot];
  const std::uint32_t id = b.head;
  Node& n = nodes_[id];
  b.head = n.next;
  if (b.head == kNil) {
    occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    if (occupied_[slot / 64] == 0) summary_ &= ~(std::uint64_t{1} << (slot / 64));
  }
  n.next = free_;
  free_ = id;
  --size_;
  return n.ev;
}

inline void EventQueue::insert(const Event& e, std::size_t slot) {
  std::uint32_t id = free_;
  if (id != kNil) {
    free_ = nodes_[id].next;
    nodes_[id] = Node{e, kNil};
  } else {
    id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{e, kNil});
  }
  Bucket& b = buckets_[slot];
  if (b.head == kNil) {
    b.head = b.tail = id;
    occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    summary_ |= std::uint64_t{1} << (slot / 64);
  } else if (!before(e, nodes_[b.tail].ev)) {
    nodes_[b.tail].next = id;
    b.tail = id;
  } else {
    insert_sorted(b, id);
  }
}

inline std::size_t EventQueue::next_occupied(std::size_t from) const {
  // First occupied slot at or after `from`, wrapping past the last slot.
  std::size_t word = from / 64;
  const std::uint64_t here = occupied_[word] & (~std::uint64_t{0} << (from % 64));
  if (here != 0) return word * 64 + static_cast<std::size_t>(std::countr_zero(here));
  std::uint64_t later = summary_ >> (word + 1) << (word + 1);
  if (later == 0) later = summary_;  // wrap: slots below `from` hold later buckets
  word = static_cast<std::size_t>(std::countr_zero(later));
  return word * 64 + static_cast<std::size_t>(std::countr_zero(occupied_[word]));
}

}  // namespace ocb::sim
