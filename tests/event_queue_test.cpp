// sim::EventQueue against a reference: a std::priority_queue ordered by
// (t, seq). The wheel must pop the identical sequence — same-instant ties,
// overflow beyond the window, clock jumps over an empty wheel, slot-index
// wrap-around and arbitrary-picosecond times included — and size() must
// count overflow events. Plus Engine-level pause/resume through
// run(max_events) and the RunResult::drained flag.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "sim/engine.h"
#include "sim/event_queue.h"

namespace ocb::sim {
namespace {

constexpr Duration kWindow = EventQueue::kBuckets * EventQueue::kBucketWidth;

struct Later {
  bool operator()(const Event& a, const Event& b) const { return before(b, a); }
};

/// The wheel and the reference side by side; every pop is compared.
class Checked {
 public:
  void push(Time t) { push(t, next_seq_++); }
  void push(Time t, std::uint64_t seq) {
    const Event e{t, seq, nullptr, nullptr};
    wheel_.push(e);
    ref_.push(e);
    ASSERT_EQ(wheel_.size(), ref_.size());
  }
  Event pop() {
    const Event want = ref_.top();
    ref_.pop();
    const Event got = wheel_.pop();
    EXPECT_EQ(got.t, want.t);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(wheel_.size(), ref_.size());
    EXPECT_EQ(wheel_.empty(), ref_.empty());
    now_ = got.t;
    return got;
  }
  void drain() {
    while (!ref_.empty()) pop();
  }
  Time now() const { return now_; }
  std::size_t size() const { return wheel_.size(); }

 private:
  EventQueue wheel_;
  std::priority_queue<Event, std::vector<Event>, Later> ref_;
  std::uint64_t next_seq_ = 0;
  Time now_ = 0;
};

TEST(EventQueue, SameInstantTiesPopInSeqOrder) {
  Checked q;
  for (int i = 0; i < 20; ++i) q.push(from_ns(5));
  for (int i = 0; i < 20; ++i) EXPECT_EQ(q.pop().seq, static_cast<std::uint64_t>(i));
}

TEST(EventQueue, PushAtNowPopsBeforeLaterTimes) {
  Checked q;
  q.push(from_ns(10));
  q.push(from_ns(116));
  EXPECT_EQ(q.pop().t, from_ns(10));
  q.push(q.now());  // t == now, after the 116 ns event in seq
  q.push(q.now());
  EXPECT_EQ(q.pop().t, from_ns(10));
  EXPECT_EQ(q.pop().t, from_ns(10));
  EXPECT_EQ(q.pop().t, from_ns(116));
}

TEST(EventQueue, SizeCountsOverflowEvents) {
  Checked q;
  q.push(from_ns(451));
  q.push(kWindow);  // first bucket past the window
  q.push(10 * kWindow);
  q.push(kMillisecond);
  EXPECT_EQ(q.size(), 4u);
  q.pop();
  EXPECT_EQ(q.size(), 3u);
  q.drain();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, OverflowEventsReturnInOrder) {
  Checked q;
  // Far-future events out of order, with ties, interleaved with near ones.
  for (Time t : {5 * kWindow, 3 * kWindow, 5 * kWindow, kMillisecond,
                 3 * kWindow + 1, from_ns(5), 2 * kWindow}) {
    q.push(t);
  }
  q.drain();
}

TEST(EventQueue, OverflowEventMigratesAheadOfLaterSeqAtSameTime) {
  Checked q;
  const Time t = kWindow + from_ns(500);
  q.push(t, 10);                // beyond the window: waits in overflow
  q.push(from_ns(900), 11);
  EXPECT_EQ(q.pop().seq, 11u);  // the window now covers t
  q.push(t, 12);                // same instant, same bucket, later seq
  q.push(t, 5);                 // same instant, earlier seq: goes first
  EXPECT_EQ(q.pop().seq, 5u);
  EXPECT_EQ(q.pop().seq, 10u);
  EXPECT_EQ(q.pop().seq, 12u);
}

TEST(EventQueue, ClockJumpsOverAnEmptyWheel) {
  Checked q;
  q.push(from_ns(5));
  q.pop();
  q.push(7 * kMillisecond);  // only overflow remains
  q.push(7 * kMillisecond + from_ns(10));
  q.push(7 * kMillisecond + 3 * kWindow);
  EXPECT_EQ(q.pop().t, 7 * kMillisecond);
  // Near pushes work from the new base, and the jump already moved the
  // 10 ns event out of overflow, ahead of this 20 ns one.
  q.push(q.now() + from_ns(20));
  q.push(q.now());
  q.drain();
  q.push(q.now() + kMillisecond);
  q.drain();
}

TEST(EventQueue, SlotIndexWrapsAround) {
  Checked q;
  // Step the clock through many windows in ~0.7 window strides, keeping
  // events in flight on both sides of the wrap point.
  for (int i = 0; i < 50; ++i) {
    q.push(q.now() + kWindow * 7 / 10);
    q.push(q.now() + kWindow - 1);
    q.push(q.now() + from_ns(451));
    q.pop();
    q.pop();
  }
  q.drain();
}

TEST(EventQueue, ArbitraryPicosecondTimesWithinABucket) {
  Checked q;
  // Jitter-style times: several distinct instants share each 500 ps
  // bucket and arrive in decreasing time order.
  for (Time i = 0; i < 280; ++i) q.push(2'000 - 7 * i);
  for (int i = 0; i < 100; ++i) q.pop();
  const Time now = q.now();
  for (Time i = 0; i <= 300; ++i) q.push(now + 900 - 3 * i);
  q.drain();
}

/// Seeded random operation mix shaped like the simulator's traffic: the
/// cost-model delays, t == now, arbitrary picoseconds and far overflow.
void random_mix(std::uint64_t seed, bool shuffled_seq) {
  Xoshiro256 rng(seed);
  Checked q;
  std::uint64_t seq = 0;
  for (int step = 0; step < 200'000; ++step) {
    if (q.size() == 0 || rng.next_below(100) < 52) {
      Duration d = 0;
      switch (rng.next_below(8)) {
        case 0: d = 0; break;
        case 1: d = from_ns(5); break;
        case 2: d = from_ns(10); break;
        case 3: d = from_ns(116); break;
        case 4: d = from_ns(451); break;
        case 5: d = rng.next_below(3'000); break;                // jitter, ps
        case 6: d = rng.next_below(2 * kWindow); break;          // either side
        default: d = kWindow + rng.next_below(kMillisecond); break;  // overflow
      }
      // Shuffled seqs (still unique) stress the sorted insertion path.
      const std::uint64_t s = shuffled_seq ? (rng.next() << 20) | seq : seq;
      ++seq;
      q.push(q.now() + d, s);
    } else {
      q.pop();
    }
    if (::testing::Test::HasFailure()) return;
  }
  q.drain();
}

TEST(EventQueue, RandomMixMatchesReference) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    random_mix(seed, false);
  }
}

TEST(EventQueue, RandomMixWithUnorderedSeqMatchesReference) {
  for (std::uint64_t seed : {4u, 5u}) {
    SCOPED_TRACE(seed);
    random_mix(seed, true);
  }
}

// ---- Engine-level ------------------------------------------------------

struct Chain {
  Engine* engine = nullptr;
  Xoshiro256 rng{99};
  std::vector<std::pair<Time, int>>* log = nullptr;
  int id = 0;
  int left = 0;
};

void chain_step(void* ctx) {
  auto* c = static_cast<Chain*>(ctx);
  c->log->emplace_back(c->engine->now(), c->id);
  if (--c->left == 0) return;
  const Duration delays[] = {0, from_ns(5), from_ns(10), from_ns(116),
                             from_ns(451), 3 * kWindow};
  c->engine->schedule_fn(c->engine->now() + delays[c->rng.next_below(6)],
                         &chain_step, c);
}

std::vector<std::pair<Time, int>> run_chains(std::uint64_t chunk) {
  Engine engine;
  std::vector<std::pair<Time, int>> log;
  std::vector<Chain> chains(16);
  for (int i = 0; i < 16; ++i) {
    chains[static_cast<std::size_t>(i)] =
        Chain{&engine, Xoshiro256(static_cast<std::uint64_t>(i) + 1), &log, i, 300};
    engine.schedule_fn(from_ns(static_cast<std::uint64_t>(i % 4)),
                       &chain_step, &chains[static_cast<std::size_t>(i)]);
  }
  RunResult r;
  do {
    r = engine.run(chunk);
    EXPECT_EQ(r.drained, engine.queue_size() == 0);
  } while (!r.drained);
  EXPECT_EQ(r.events_processed, 16u * 300u);
  return log;
}

TEST(EngineQueue, RunPausesAndResumesMidWindowInOrder) {
  const auto whole = run_chains(UINT64_MAX);
  ASSERT_EQ(whole.size(), 16u * 300u);
  for (std::uint64_t chunk : {1u, 7u, 97u}) {
    EXPECT_EQ(run_chains(chunk), whole) << "chunk " << chunk;
  }
}

TEST(EngineQueue, DrainedOnExactlyTheLastBudgetedEvent) {
  Engine engine;
  int fired = 0;
  auto bump = [](void* p) { ++*static_cast<int*>(p); };
  for (int i = 0; i < 5; ++i) {
    engine.schedule_fn(from_ns(10) * static_cast<Time>(i), bump, &fired);
  }
  engine.schedule_fn(kMillisecond, bump, &fired);  // overflow counts too
  EXPECT_EQ(engine.queue_size(), 6u);
  RunResult r = engine.run(5);
  EXPECT_FALSE(r.drained);
  EXPECT_EQ(engine.queue_size(), 1u);
  r = engine.run(1);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(fired, 6);
  EXPECT_EQ(r.events_processed, 6u);
  EXPECT_EQ(r.max_queue_depth, 6u);
}

}  // namespace
}  // namespace ocb::sim
