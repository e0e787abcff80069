// The discrete-event simulation engine: one single-threaded event loop.
//
// Events are (time, sequence) ordered, ties broken by insertion order, so
// identical inputs produce identical simulations on every platform.
// Simulated SCC cores run as coroutines (sim::Task) spawned onto the
// engine; awaitables suspend them and events resume them at computed
// times.
//
// The queue is sim::EventQueue, a time wheel of 500 ps buckets with a
// 4-ary heap for events beyond its ~1 µs window (see event_queue.h). It
// pops in exact (t, seq) order — a total order, so no tie can resolve
// differently from a plain heap.
//
// An Engine is not thread-safe and needs no locks: it belongs to the
// thread that runs it. Parallelism lives one level up, across independent
// chip replications (harness::parallel_map), each with its own Engine.
// DESIGN.md §11 says why there is no parallel loop inside one chip.
//
// Ownership model: Engine::spawn wraps each top-level Task in a root frame
// the engine owns. Destroying the engine destroys every root frame, which
// transitively frees any suspended nested call chain (see task.h), so a
// deadlocked or partially-run simulation cannot leak.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/task.h"
#include "sim/time.h"

namespace ocb::sim {

class Engine;

namespace detail {

struct RootPromise;

/// Handle for a spawned top-level process; owned by the Engine.
struct RootTask {
  using promise_type = RootPromise;
  std::coroutine_handle<RootPromise> handle;
};

struct RootPromise {
  Engine* engine = nullptr;
  bool finished = false;

  RootTask get_return_object() {
    return RootTask{std::coroutine_handle<RootPromise>::from_promise(*this)};
  }
  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<RootPromise> h) const noexcept;
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void return_void() noexcept {}
  void unhandled_exception() noexcept;
};

}  // namespace detail

/// Outcome of Engine::run().
struct RunResult {
  std::uint64_t events_processed = 0;
  /// Processes spawned but not finished when the event queue drained.
  /// Non-zero means the simulation deadlocked (e.g. a flag never set) or a
  /// process was deliberately halted (fault injection).
  std::size_t stalled_processes = 0;
  Time end_time = 0;
  /// Deepest the event queue ever got (engine lifetime, overflow events
  /// included): a queue-pressure regression shows up here rather than being
  /// inferred from wall time.
  std::uint64_t max_queue_depth = 0;
  /// The call returned because the queue emptied, not because it hit
  /// `max_events` (a queue that empties on exactly the last budgeted event
  /// counts as drained).
  bool drained = false;
  /// One entry per stalled process: its spawn label plus the wait reason it
  /// last reported (see Engine::spawn), e.g. "core 12: flag-wait mpb[7]:3".
  /// Makes fault-induced hangs diagnosable without a debugger.
  std::vector<std::string> stalled_details;

  bool completed() const { return stalled_processes == 0; }
};

class Engine {
 public:
  Engine() = default;
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `h` to resume at absolute time `t` (>= now()).
  void schedule(Time t, std::coroutine_handle<> h);

  /// Schedules a plain callback (no allocation; fn must outlive the event).
  void schedule_fn(Time t, void (*fn)(void*), void* ctx);

  /// Starts a top-level process at the current simulated time. `describe`
  /// (optional, with its context pointer) is invoked lazily when the
  /// process is still unfinished at the end of a run(), to fill
  /// RunResult::stalled_details — it should report who the process is and
  /// what it is currently waiting for. A plain function pointer, not a
  /// std::function: spawn sits on the sweep hot path (one call per core
  /// per chip) and must not allocate per process.
  void spawn(Task<void> task, std::string (*describe)(void*) = nullptr,
             void* describe_ctx = nullptr);

  /// Number of spawned processes that have not yet finished.
  std::size_t live_processes() const { return live_; }

  /// Events currently queued, overflow included.
  std::size_t queue_size() const { return queue_.size(); }

  /// Awaitable: suspends the caller for `d` simulated time.
  auto sleep(Duration d) {
    struct Awaiter {
      Engine* engine;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        engine->schedule(engine->now() + d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Runs until the event queue drains or `max_events` is hit. Rethrows the
  /// first exception that escaped any process. Returns queue statistics.
  RunResult run(std::uint64_t max_events = UINT64_MAX);

  /// Awaitable that never resumes: the simulation analogue of a fail-stop.
  /// The suspended frame is reclaimed at engine teardown (see the ownership
  /// model above), and the process counts as stalled in RunResult.
  struct HaltForever {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {}
  };
  static HaltForever halt_forever() { return {}; }

 private:
  friend struct detail::RootPromise;

  struct Root {
    std::coroutine_handle<detail::RootPromise> handle;
    std::string (*describe)(void*) = nullptr;
    void* describe_ctx = nullptr;
  };

  static detail::RootTask make_root(Task<void> task);

  void note_process_finished() { --live_; }
  void note_process_error(std::exception_ptr e) {
    if (!first_error_) first_error_ = e;
  }

  EventQueue queue_;
  std::vector<Root> roots_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t max_queue_depth_ = 0;
  std::size_t live_ = 0;
  std::exception_ptr first_error_{};
};

}  // namespace ocb::sim
