// The discrete-event simulation engine.
//
// Two execution modes over the same (time, key)-ordered event model:
//
// SERIAL (the reference): a single-threaded event loop. Events are
// (time, sequence) ordered, ties broken by insertion order, so identical
// inputs produce identical simulations on every platform. Simulated SCC
// cores run as coroutines (sim::Task) spawned onto the engine; awaitables
// suspend them and events resume them at computed times.
//
// PDES (run_pdes): conservative parallel discrete-event simulation. The
// event space is statically partitioned into kMaxLanes lanes (the chip maps
// contiguous tile groups to lanes); each lane owns a private (time, key)
// heap and a private notion of "now". A fixed pool of worker threads
// round-robins the lanes and drains them in lock-step safety windows
// [GVT, GVT + lookahead): within a window no lane may affect another (the
// caller guarantees every cross-lane edge costs at least `lookahead`), so
// lanes execute without synchronization. Cross-lane events are posted to
// per-lane inboxes and delivered at the window barrier, which also computes
// the next GVT (min pending time across lanes).
//
// Determinism under PDES is thread-count-invariant by construction:
//  - the lane count is fixed (independent of worker count), and
//  - every event key is (time, origin lane, per-lane monotone counter),
//    packed into the 64-bit seq field (lane in the top byte),
// so each lane's heap receives the same multiset of keys and pops them in
// the same order whether one thread or eight drain the lanes. Running with
// 1 thread and with N threads is bit-identical; that is the parity anchor
// (tests/pdes_equivalence_test.cpp). See DESIGN.md §11 for the full
// argument, including why same-(t) cross-lane order is unobservable.
//
// The serial queue is sim::EventQueue, a time wheel of 500 ps buckets with
// a 4-ary heap for events beyond its ~1 µs window (see event_queue.h). It
// pops in exact (t, seq) order — a total order, so no tie can resolve
// differently from a plain heap. PDES lanes keep plain 4-ary heaps.
//
// Ownership model: Engine::spawn wraps each top-level Task in a root frame
// the engine owns. Destroying the engine destroys every root frame, which
// transitively frees any suspended nested call chain (see task.h), so a
// deadlocked or partially-run simulation cannot leak.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/frame_pool.h"
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

  static void* operator new(std::size_t bytes) { return FramePool::allocate(bytes); }
  static void operator delete(void* p) noexcept { FramePool::deallocate(p); }
  static void operator delete(void* p, std::size_t) noexcept {
    FramePool::deallocate(p);
  }
};

}  // namespace detail

/// Outcome of Engine::run() / Engine::run_pdes().
struct RunResult {
  std::uint64_t events_processed = 0;
  /// Processes spawned but not finished when the event queue drained.
  /// Non-zero means the simulation deadlocked (e.g. a flag never set) or a
  /// process was deliberately halted (fault injection).
  std::size_t stalled_processes = 0;
  Time end_time = 0;
  /// Deepest the event queue ever got (engine lifetime, overflow events
  /// included): a queue-pressure regression shows up here rather than being
  /// inferred from wall time. Under PDES this is the deepest any single
  /// lane heap got.
  std::uint64_t max_queue_depth = 0;
  /// The call returned because the queue emptied, not because it hit
  /// `max_events` (a queue that empties on exactly the last budgeted event
  /// counts as drained). Always true after run_pdes.
  bool drained = false;
  /// Coroutine-frame allocation counters for this run (deltas; non-zero
  /// only when built with OCB_SIM_STATS): frames taken from the system
  /// allocator vs. recycled through the sim::FramePool free lists. Under
  /// parallel PDES these count the calling thread only (frames migrate
  /// between workers), so they are reported but not parity-compared.
  std::uint64_t frame_allocs = 0;
  std::uint64_t frame_reuses = 0;
  /// Worker threads the run actually used: 0 for the serial reference loop,
  /// >=1 when the PDES window loop ran. Always filled (the harness budget
  /// split and its regression test key off it).
  unsigned pdes_threads = 0;
  /// Per-window PDES statistics; maintained only when built with
  /// OCB_SIM_STATS (zero otherwise). `pdes_lookahead_ns` is the safety
  /// window width (constant per run — reported so the derivation is
  /// auditable); mean advance per window = (end_time - start) / windows.
  std::uint64_t pdes_windows = 0;
  std::uint64_t pdes_cross_events = 0;
  Duration pdes_lookahead_ns = 0;
  /// Coalesced-RMA observer-batch counters for this run (deltas; filled by
  /// SccChip::run, zero for plain Engine runs and non-OCB_SIM_STATS
  /// builds): ops that took the fast path (and how many of those ran with
  /// observers installed / closed-form), plus ops denied the fast path at
  /// acquisition (gate window not clear, per-core pool exhausted) and the
  /// lines those ops replayed through the per-line reference path.
  std::uint64_t bulk_ops = 0;
  std::uint64_t bulk_ops_observed = 0;
  std::uint64_t bulk_quiescent_ops = 0;
  std::uint64_t bulk_fallback_ops = 0;
  std::uint64_t bulk_fallback_lines = 0;
  /// One entry per stalled process: its spawn label plus the wait reason it
  /// last reported (see Engine::spawn), e.g. "core 12: flag-wait mpb[7]:3".
  /// Makes fault-induced hangs diagnosable without a debugger.
  std::vector<std::string> stalled_details;

  bool completed() const { return stalled_processes == 0; }
};

class Engine {
 public:
  /// Fixed lane count for PDES runs. Thread counts are clamped to this; the
  /// lane partition (and therefore every event key) never depends on the
  /// worker count — that is what makes 1-thread and N-thread runs
  /// bit-identical.
  static constexpr unsigned kMaxLanes = 8;

  Engine() = default;
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time. During a PDES run this is the executing
  /// lane's current event time (lanes advance independently inside a
  /// safety window).
  Time now() const;

  /// Schedules `h` to resume at absolute time `t` (>= now()). Under PDES
  /// this lands on the calling lane — cross-lane edges go through hop().
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
  ///
  /// `lane` is the process's home lane for PDES runs (ignored by the
  /// serial loop). Spawning while PDES workers are running is not
  /// supported — callers that spawn mid-run (the broadcast service) must
  /// run serial; SccChip::run falls back automatically.
  void spawn(Task<void> task, std::string (*describe)(void*) = nullptr,
             void* describe_ctx = nullptr, unsigned lane = 0);

  /// Number of spawned processes that have not yet finished.
  std::size_t live_processes() const {
    return live_.load(std::memory_order_relaxed);
  }

  /// Events currently queued (serial mode), overflow included. The
  /// closed-form RMA fast path uses this to detect a quiescent machine;
  /// PDES runs never take that path (coalescing is disabled under PDES).
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

  /// Awaitable: resumes the caller at absolute time `t` on `lane`. The
  /// cross-lane building block for PDES: the SCC layer fuses "core-side
  /// entry overhead + uncontended mesh traversal" into one hop whose
  /// latency is >= the run's lookahead, which is exactly what makes the
  /// safety windows conservative. Hopping to the current lane is an
  /// ordinary local event. Only meaningful while a PDES run is executing.
  auto hop(unsigned lane, Time t) {
    struct Awaiter {
      Engine* engine;
      unsigned lane;
      Time t;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        engine->schedule_on_lane(lane, t, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, lane, t};
  }

  /// True while a PDES run (any worker count, including 1) is executing.
  /// Primitives with PDES-specific paths (Rendezvous) branch on this so
  /// that the 1-thread and N-thread algorithms are literally the same.
  bool pdes_running() const { return pdes_running_; }

  /// Lane of the currently executing event (PDES runs only).
  unsigned current_lane() const;

  /// Reserves a deterministic event key on the calling lane (PDES runs
  /// only): the key the caller's *next* locally scheduled event would get.
  /// Rendezvous captures one per arrival so that boundary-deferred wake
  /// events are keyed by their own arrival, independent of the real-time
  /// order in which arrivals were observed.
  std::uint64_t reserve_key();

  /// Schedules `h` at time `t` with a previously reserved key, delivered
  /// into the key's origin lane at the next window boundary. Safe to call
  /// from any worker (internally synchronized); the barrier makes delivery
  /// deterministic.
  void schedule_at_boundary(std::uint64_t key, Time t, std::coroutine_handle<> h);

  /// Runs until the event queue drains or `max_events` is hit. Rethrows the
  /// first exception that escaped any process. Returns queue statistics.
  RunResult run(std::uint64_t max_events = UINT64_MAX);

  /// Conservative-PDES run: drains all lanes in lock-step safety windows of
  /// width `lookahead`, using `threads` workers (clamped to [1, kMaxLanes]).
  /// Requirements (the SCC layer enforces them before choosing this mode):
  /// every cross-lane edge costs >= `lookahead`, no observer is installed,
  /// jitter is zero, and no process spawns further processes mid-run.
  /// Bit-identical for every `threads` value.
  RunResult run_pdes(unsigned threads, Duration lookahead);

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
    unsigned lane = 0;
  };

  /// One PDES lane: a private heap, inbox, and clock. Padded so adjacent
  /// lanes never share a cache line across workers.
  struct alignas(64) Lane {
    std::vector<Event> heap;
    Time now = 0;        ///< current event's time (regresses only at window
                         ///< boundaries, for boundary-deferred wakes)
    Time max_t = 0;      ///< latest event time executed on this lane
    std::uint64_t cnt = 0;        ///< key counter (lane-local, monotone)
    std::uint64_t processed = 0;
    std::uint64_t max_depth = 0;
    std::mutex inbox_mu;
    std::vector<Event> inbox;  ///< cross-lane deliveries (>= next horizon)
  };

  static detail::RootTask make_root(Task<void> task);

  void schedule_on_lane(unsigned lane, Time t, std::coroutine_handle<> h);
  void lane_push(Lane& lane, const Event& e);
  void worker_loop(unsigned worker, unsigned threads);
  void window_boundary();

  void note_process_finished() {
    live_.fetch_sub(1, std::memory_order_relaxed);
  }
  void note_process_error(std::exception_ptr e);

  EventQueue queue_;
  std::vector<Root> roots_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t max_queue_depth_ = 0;
  std::atomic<std::size_t> live_{0};
  std::mutex error_mu_;
  std::exception_ptr first_error_{};

  // --- PDES run state (valid between run_pdes entry and exit) ----------
  std::vector<Lane> lanes_;
  Time horizon_ = 0;  ///< current window's exclusive upper bound (written
                      ///< by the barrier completion, read by workers; the
                      ///< barrier orders the accesses)
  bool pdes_running_ = false;
  bool stop_ = false;
  std::atomic<bool> error_flag_{false};
  std::mutex boundary_mu_;
  std::vector<Event> boundary_;  ///< boundary-deferred wakes (Rendezvous)
  Duration lookahead_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t cross_events_ = 0;
};

}  // namespace ocb::sim
