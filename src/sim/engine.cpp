#include "sim/engine.h"

#include <algorithm>
#include <barrier>
#include <limits>
#include <thread>
#include <utility>

#include "common/require.h"

namespace ocb::sim {

namespace {

constexpr Time kNoEvent = std::numeric_limits<Time>::max();

/// Worker-thread execution context for PDES runs: which engine and lane the
/// current event belongs to. Engine-checked (a parallel_map worker running
/// its own serial chip inside a PDES host process must not route through
/// the host's lanes). `lane` is an Engine::Lane*, stored untyped because
/// Lane is private to Engine.
struct LaneCtx {
  Engine* engine = nullptr;
  void* lane = nullptr;
  unsigned idx = 0;
};

thread_local LaneCtx t_ctx;

}  // namespace

namespace detail {

void RootPromise::FinalAwaiter::await_suspend(
    std::coroutine_handle<RootPromise> h) const noexcept {
  // The frame stays suspended here; the Engine destroys it at teardown.
  RootPromise& p = h.promise();
  p.finished = true;
  if (p.engine != nullptr) p.engine->note_process_finished();
}

void RootPromise::unhandled_exception() noexcept {
  if (engine != nullptr) engine->note_process_error(std::current_exception());
}

}  // namespace detail

Engine::~Engine() {
  for (Root& root : roots_) {
    if (root.handle) root.handle.destroy();
  }
}

Time Engine::now() const {
  if (t_ctx.engine == this && t_ctx.lane != nullptr) {
    return static_cast<const Lane*>(t_ctx.lane)->now;
  }
  return now_;
}

unsigned Engine::current_lane() const {
  OCB_REQUIRE(t_ctx.engine == this && t_ctx.lane != nullptr,
              "current_lane() outside a PDES event");
  return t_ctx.idx;
}

void Engine::lane_push(Lane& lane, const Event& e) {
  heap_push(lane.heap, e);
  if (lane.heap.size() > lane.max_depth) lane.max_depth = lane.heap.size();
}

void Engine::schedule(Time t, std::coroutine_handle<> h) {
  if (t_ctx.engine == this && t_ctx.lane != nullptr) {
    Lane& lane = *static_cast<Lane*>(t_ctx.lane);
    OCB_REQUIRE(t >= lane.now, "cannot schedule an event in the past");
    lane_push(lane, Event{t, (std::uint64_t{t_ctx.idx} << 56) | lane.cnt++,
                          h.address(), nullptr});
    return;
  }
  OCB_REQUIRE(!pdes_running_, "schedule() from outside a lane during a PDES run");
  OCB_REQUIRE(t >= now_, "cannot schedule an event in the past");
  queue_.push(Event{t, next_seq_++, h.address(), nullptr});
  if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
}

void Engine::schedule_fn(Time t, void (*fn)(void*), void* ctx) {
  OCB_REQUIRE(fn != nullptr, "null event callback");
  if (t_ctx.engine == this && t_ctx.lane != nullptr) {
    Lane& lane = *static_cast<Lane*>(t_ctx.lane);
    OCB_REQUIRE(t >= lane.now, "cannot schedule an event in the past");
    lane_push(lane,
              Event{t, (std::uint64_t{t_ctx.idx} << 56) | lane.cnt++, ctx, fn});
    return;
  }
  OCB_REQUIRE(!pdes_running_, "schedule_fn() from outside a lane during a PDES run");
  OCB_REQUIRE(t >= now_, "cannot schedule an event in the past");
  queue_.push(Event{t, next_seq_++, ctx, fn});
  if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
}

void Engine::schedule_on_lane(unsigned lane, Time t, std::coroutine_handle<> h) {
  OCB_REQUIRE(t_ctx.engine == this && t_ctx.lane != nullptr,
              "hop() outside a PDES event");
  OCB_REQUIRE(lane < lanes_.size(), "hop() to an unknown lane");
  Lane& src = *static_cast<Lane*>(t_ctx.lane);
  const Event e{t, (std::uint64_t{t_ctx.idx} << 56) | src.cnt++, h.address(),
                nullptr};
  if (lane == t_ctx.idx) {
    OCB_REQUIRE(t >= src.now, "cannot schedule an event in the past");
    lane_push(src, e);
    return;
  }
  // The conservative contract: a cross-lane edge may never land inside the
  // current safety window — the receiving lane could already be past it.
  // Every SCC cross-lane primitive costs at least the lookahead, so this
  // only fires on a modeling bug.
  OCB_REQUIRE(t >= horizon_, "conservative lookahead violated by cross-lane event");
  Lane& dst = lanes_[lane];
  std::lock_guard<std::mutex> lock(dst.inbox_mu);
  dst.inbox.push_back(e);
}

std::uint64_t Engine::reserve_key() {
  OCB_REQUIRE(t_ctx.engine == this && t_ctx.lane != nullptr,
              "reserve_key() outside a PDES event");
  Lane& lane = *static_cast<Lane*>(t_ctx.lane);
  return (std::uint64_t{t_ctx.idx} << 56) | lane.cnt++;
}

void Engine::schedule_at_boundary(std::uint64_t key, Time t,
                                  std::coroutine_handle<> h) {
  std::lock_guard<std::mutex> lock(boundary_mu_);
  boundary_.push_back(Event{t, key, h.address(), nullptr});
}

void Engine::note_process_error(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (!first_error_) first_error_ = e;
  error_flag_.store(true, std::memory_order_relaxed);
}

detail::RootTask Engine::make_root(Task<void> task) {
  co_await std::move(task);
}

void Engine::spawn(Task<void> task, std::string (*describe)(void*),
                   void* describe_ctx, unsigned lane) {
  OCB_REQUIRE(task.valid(), "spawning an empty Task");
  OCB_REQUIRE(!pdes_running_,
              "spawning a process during a PDES run is not supported; run this "
              "workload serially (see DESIGN.md §11)");
  detail::RootTask root = make_root(std::move(task));
  root.handle.promise().engine = this;
  roots_.push_back(Root{root.handle, describe, describe_ctx, lane % kMaxLanes});
  live_.fetch_add(1, std::memory_order_relaxed);
  schedule(now_, root.handle);
}

RunResult Engine::run(std::uint64_t max_events) {
#ifdef OCB_SIM_STATS
  const FramePool::Stats pool_before = FramePool::stats();
#endif
  std::uint64_t processed = 0;
  while (!queue_.empty() && processed < max_events) {
    const Event ev = queue_.pop();
    OCB_ENSURE(ev.t >= now_, "event queue time went backwards");
    now_ = ev.t;
    ++processed;
    if (ev.fn == nullptr) {
      std::coroutine_handle<>::from_address(ev.ptr).resume();
    } else {
      ev.fn(ev.ptr);
    }
    if (first_error_) {
      std::exception_ptr e = std::exchange(first_error_, nullptr);
      error_flag_.store(false, std::memory_order_relaxed);
      events_processed_ += processed;
      std::rethrow_exception(e);
    }
  }
  events_processed_ += processed;
  RunResult result;
  result.events_processed = events_processed_;
  result.stalled_processes = live_processes();
  result.end_time = now_;
  result.max_queue_depth = max_queue_depth_;
  result.drained = queue_.empty();
#ifdef OCB_SIM_STATS
  const FramePool::Stats pool_after = FramePool::stats();
  result.frame_allocs = pool_after.fresh - pool_before.fresh;
  result.frame_reuses = pool_after.reused - pool_before.reused;
#endif
  if (live_processes() > 0) {
    for (std::size_t i = 0; i < roots_.size(); ++i) {
      const Root& root = roots_[i];
      if (root.handle.promise().finished) continue;
      result.stalled_details.push_back(
          root.describe != nullptr ? root.describe(root.describe_ctx)
                                   : "process #" + std::to_string(i));
    }
  }
  return result;
}

void Engine::window_boundary() {
  // Single-threaded (std::barrier completion): every worker is parked at
  // the barrier, so lane heaps are safe to touch directly.
  {
    std::lock_guard<std::mutex> lock(boundary_mu_);
    for (const Event& e : boundary_) {
      lane_push(lanes_[static_cast<std::size_t>(e.seq >> 56)], e);
    }
    boundary_.clear();
  }
  for (Lane& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane.inbox_mu);
    cross_events_ += lane.inbox.size();
    for (const Event& e : lane.inbox) lane_push(lane, e);
    lane.inbox.clear();
  }
  Time gvt = kNoEvent;
  for (const Lane& lane : lanes_) {
    if (!lane.heap.empty() && lane.heap.front().t < gvt) {
      gvt = lane.heap.front().t;
    }
  }
  if (gvt == kNoEvent || error_flag_.load(std::memory_order_relaxed)) {
    stop_ = true;
    return;
  }
  horizon_ = gvt + lookahead_;
  ++windows_;
}

RunResult Engine::run_pdes(unsigned threads, Duration lookahead) {
  OCB_REQUIRE(lookahead > 0, "PDES lookahead must be positive");
  threads = std::clamp(threads, 1u, kMaxLanes);
#ifdef OCB_SIM_STATS
  const FramePool::Stats pool_before = FramePool::stats();
#endif

  // Seed the lanes: every pending event must be a spawned root's start
  // event (anything else has no home lane). Keys are assigned in serial
  // (t, seq) order — the queue's pop order — so the seeding itself is
  // deterministic.
  lanes_ = std::vector<Lane>(kMaxLanes);
  for (Lane& lane : lanes_) {
    lane.now = now_;
    lane.max_t = now_;
  }
  {
    while (!queue_.empty()) {
      const Event e = queue_.pop();
      const Root* owner = nullptr;
      for (const Root& root : roots_) {
        if (root.handle.address() == e.ptr) {
          owner = &root;
          break;
        }
      }
      OCB_REQUIRE(owner != nullptr && e.fn == nullptr,
                  "PDES run with a pending event that is not a spawned "
                  "process start");
      Lane& lane = lanes_[owner->lane];
      lane_push(lane, Event{e.t, (std::uint64_t{owner->lane} << 56) | lane.cnt++,
                            e.ptr, nullptr});
    }
  }

  lookahead_ = lookahead;
  windows_ = 0;
  cross_events_ = 0;
  stop_ = false;
  error_flag_.store(false, std::memory_order_relaxed);
  pdes_running_ = true;
  window_boundary();  // computes the first horizon (or stops on empty)

  auto on_boundary = [this]() noexcept { window_boundary(); };
  std::barrier bar(static_cast<std::ptrdiff_t>(threads), on_boundary);

  auto work = [this, threads, &bar](unsigned worker) {
    while (!stop_) {
      for (unsigned idx = worker; idx < lanes_.size(); idx += threads) {
        Lane& lane = lanes_[idx];
        t_ctx = LaneCtx{this, &lane, idx};
        const Time horizon = horizon_;
        while (!lane.heap.empty() && lane.heap.front().t < horizon) {
          const Event ev = heap_pop(lane.heap);
          lane.now = ev.t;
          if (ev.t > lane.max_t) lane.max_t = ev.t;
          ++lane.processed;
          if (ev.fn == nullptr) {
            std::coroutine_handle<>::from_address(ev.ptr).resume();
          } else {
            ev.fn(ev.ptr);
          }
          if (error_flag_.load(std::memory_order_relaxed)) break;
        }
        t_ctx = LaneCtx{};
      }
      bar.arrive_and_wait();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned w = 1; w < threads; ++w) {
    pool.emplace_back(work, w);
  }
  work(0);
  for (std::thread& th : pool) th.join();
  pdes_running_ = false;

  std::uint64_t processed = 0;
  Time end = now_;
  std::uint64_t deepest = 0;
  for (const Lane& lane : lanes_) {
    processed += lane.processed;
    if (lane.max_t > end) end = lane.max_t;
    if (lane.max_depth > deepest) deepest = lane.max_depth;
  }
  events_processed_ += processed;
  now_ = end;
  if (deepest > max_queue_depth_) max_queue_depth_ = deepest;
  lanes_.clear();

  if (first_error_) {
    std::exception_ptr e;
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      e = std::exchange(first_error_, nullptr);
    }
    error_flag_.store(false, std::memory_order_relaxed);
    std::rethrow_exception(e);
  }

  RunResult result;
  result.events_processed = events_processed_;
  result.stalled_processes = live_processes();
  result.end_time = now_;
  result.max_queue_depth = max_queue_depth_;
  result.drained = true;
  result.pdes_threads = threads;
#ifdef OCB_SIM_STATS
  const FramePool::Stats pool_after = FramePool::stats();
  result.frame_allocs = pool_after.fresh - pool_before.fresh;
  result.frame_reuses = pool_after.reused - pool_before.reused;
  result.pdes_windows = windows_;
  result.pdes_cross_events = cross_events_;
  result.pdes_lookahead_ns = lookahead_;
#endif
  if (live_processes() > 0) {
    for (std::size_t i = 0; i < roots_.size(); ++i) {
      const Root& root = roots_[i];
      if (root.handle.promise().finished) continue;
      result.stalled_details.push_back(
          root.describe != nullptr ? root.describe(root.describe_ctx)
                                   : "process #" + std::to_string(i));
    }
  }
  return result;
}

}  // namespace ocb::sim
