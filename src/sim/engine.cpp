#include "sim/engine.h"

#include <utility>

#include "common/require.h"

namespace ocb::sim {

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

void Engine::schedule(Time t, std::coroutine_handle<> h) {
  OCB_REQUIRE(t >= now_, "cannot schedule an event in the past");
  queue_.push(Event{t, next_seq_++, h.address(), nullptr});
  if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
}

void Engine::schedule_fn(Time t, void (*fn)(void*), void* ctx) {
  OCB_REQUIRE(fn != nullptr, "null event callback");
  OCB_REQUIRE(t >= now_, "cannot schedule an event in the past");
  queue_.push(Event{t, next_seq_++, ctx, fn});
  if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
}

detail::RootTask Engine::make_root(Task<void> task) {
  co_await std::move(task);
}

void Engine::spawn(Task<void> task, std::string (*describe)(void*),
                   void* describe_ctx) {
  OCB_REQUIRE(task.valid(), "spawning an empty Task");
  detail::RootTask root = make_root(std::move(task));
  root.handle.promise().engine = this;
  roots_.push_back(Root{root.handle, describe, describe_ctx});
  ++live_;
  schedule(now_, root.handle);
}

RunResult Engine::run(std::uint64_t max_events) {
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
