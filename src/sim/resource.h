// Contention-bearing resources.
//
// Two flavours are used by the SCC model:
//
//  * Timeline — a scalar "next free" reservation for resources where the
//    holder does not need to observe queueing as a distinct state, only the
//    resulting delay (mesh links under virtual cut-through: a packet's link
//    occupancy is reserved in issue order; the paper shows the mesh never
//    saturates at SCC scale, so this lightweight discipline is faithful).
//
//  * ArbitratedServer — a single server with an explicit waiter queue and a
//    pluggable arbitration policy, used for MPB ports and memory-controller
//    banks, the resources whose queueing produces Figure 4's contention
//    knee. kPositional models the SCC's fixed-priority router/port
//    arbitration, which is what makes contention affect cores unequally
//    ("the slowest core is more than two times slower than the fastest").
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/engine.h"

namespace ocb::sim {

/// Scalar reservation line: serialize holds in call order.
class Timeline {
 public:
  /// Reserves `service` time starting no earlier than `arrival`; returns
  /// the completion time of this hold.
  Time reserve(Time arrival, Duration service) {
    const Time start = arrival > next_free_ ? arrival : next_free_;
    next_free_ = start + service;
    return next_free_;
  }

  Time next_free() const { return next_free_; }

 private:
  Time next_free_ = 0;
};

/// How an ArbitratedServer picks the next waiter.
enum class Arbitration {
  kFifo,        ///< strictly by arrival order
  kPositional,  ///< by fixed priority (lower value wins), ties by arrival
};

/// One server, one queue. Awaiting use() suspends the caller until its
/// service completes (wait-in-queue + service time).
class ArbitratedServer {
 public:
  ArbitratedServer(Engine& engine, Arbitration policy)
      : engine_(&engine), policy_(policy) {}

  ArbitratedServer(const ArbitratedServer&) = delete;
  ArbitratedServer& operator=(const ArbitratedServer&) = delete;

  /// Awaitable: occupy the server for `service`. `priority` is only
  /// consulted under kPositional arbitration (lower value = higher
  /// priority); pass the requester's port/position index.
  auto use(Duration service, int priority = 0) {
    struct Awaiter {
      ArbitratedServer* server;
      Duration service;
      int priority;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        server->enqueue(Waiter{h, nullptr, nullptr, service, priority, 0});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, service, priority};
  }

  /// Callback flavour of use(): joins the same queue under the same
  /// arbitration, but invokes `cb(ctx)` at service completion instead of
  /// resuming a coroutine. The coalesced RMA fast path (scc/bulk.h) uses
  /// this so a coalesced transfer contends for ports exactly like the
  /// per-line path — byte-identical queueing, no coroutine frame.
  void acquire(Duration service, int priority, void (*cb)(void*), void* ctx);

  bool busy() const { return busy_; }
  std::size_t queue_length() const { return queue_.size(); }
  std::uint64_t total_served() const { return total_served_; }
  Duration busy_time() const { return busy_time_; }

 private:
  struct Waiter {
    std::coroutine_handle<> h{};   // resume if set ...
    void (*cb)(void*) = nullptr;   // ... else call cb(ctx)
    void* ctx = nullptr;
    Duration service = 0;
    int priority = 0;
    std::uint64_t seq = 0;
  };

  void enqueue(const Waiter& w);
  void begin_service(const Waiter& w);
  void on_complete();
  static void complete_trampoline(void* self) {
    static_cast<ArbitratedServer*>(self)->on_complete();
  }
  std::size_t pick_next() const;

  Engine* engine_;
  Arbitration policy_;
  bool busy_ = false;
  Waiter in_service_{};
  std::vector<Waiter> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t total_served_ = 0;
  Duration busy_time_ = 0;
};

}  // namespace ocb::sim
