// Task<T>: the coroutine type in which all simulated SCC core code runs.
//
// Design (the usual lazy-task shape, cf. cppcoro):
//  * A Task is lazy — creating it does not run anything; it starts when
//    awaited. Simulated "processes" are top-level Task<void>s handed to
//    sim::Engine::spawn, which drives them.
//  * Completion uses symmetric transfer to resume the awaiting parent,
//    so arbitrarily deep call chains (put -> write_cl -> mesh traversal)
//    neither grow the native stack nor touch the event queue.
//  * Frames form a strict ownership tree: the child frame is owned by the
//    Task object that lives in the parent's frame, so destroying the root
//    frame releases an entire suspended call chain (Engine teardown relies
//    on this).
//  * Exceptions propagate to the awaiter exactly like ordinary calls.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "common/require.h"

namespace ocb::sim {

template <typename T>
class Task;

namespace detail {

struct TaskFinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) const noexcept {
    std::coroutine_handle<> cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

struct TaskPromiseBase {
  std::coroutine_handle<> continuation{};

  std::suspend_always initial_suspend() noexcept { return {}; }
  TaskFinalAwaiter final_suspend() noexcept { return {}; }
};

template <typename T>
struct TaskPromise : TaskPromiseBase {
  std::optional<T> value{};
  std::exception_ptr error{};

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
  void unhandled_exception() { error = std::current_exception(); }

  T take_result() {
    if (error) std::rethrow_exception(error);
    OCB_ENSURE(value.has_value(), "task finished without a value");
    return std::move(*value);
  }
};

template <>
struct TaskPromise<void> : TaskPromiseBase {
  std::exception_ptr error{};

  Task<void> get_return_object();
  void return_void() noexcept {}
  void unhandled_exception() { error = std::current_exception(); }

  void take_result() {
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace detail

/// An awaitable unit of simulated work. Move-only; owns the coroutine frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(handle_type h) noexcept : h_(h) {}

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { destroy(); }

  /// True if this Task owns a (not yet moved-from) coroutine.
  bool valid() const noexcept { return static_cast<bool>(h_); }

  /// Awaiting a Task starts it and resumes the awaiter on completion.
  /// Throws PreconditionError when the Task is empty (moved-from).
  auto operator co_await() const& {
    struct Awaiter {
      handle_type h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) const noexcept {
        h.promise().continuation = cont;
        return h;  // symmetric transfer: start the child immediately
      }
      T await_resume() const { return h.promise().take_result(); }
    };
    OCB_REQUIRE(h_, "awaiting an empty Task");
    return Awaiter{h_};
  }

  /// Releases ownership of the frame (Engine::spawn uses this).
  handle_type release() noexcept { return std::exchange(h_, {}); }

 private:
  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  handle_type h_{};
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace ocb::sim
