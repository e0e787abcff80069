// Host-time spans for the traced benchmark run, kept in a
// scc::JsonTraceCollector.
//
// The benchmark opens a span around every call it makes into a simulator
// layer (topology parse, chip/session/service construction, run calls,
// probes). Each span is a complete event on one timeline whose timestamps
// are host time since the recorder started (1 host ns is stored as 1000
// sim::Time ticks, so the trace's microseconds read as host microseconds);
// Chrome tracing nests them by time. The layer is the span's category, and
// the workload operation id plus any counters read at the span's end
// (events, simulated end time, ...) are its args. Nothing is written until
// the collector's write_file(), so recording costs one steady_clock read
// per boundary.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "scc/trace_json.h"

namespace perfbench {

class Spans {
 public:
  Spans() : origin_(Clock::now()) {}

  /// Host time since construction, in sim::Time ticks (1 ns = 1000).
  ocb::sim::Time now() const {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_);
    return static_cast<ocb::sim::Time>(ns.count()) * 1000;
  }

  ocb::scc::JsonTraceCollector& trace() { return trace_; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  ocb::scc::JsonTraceCollector trace_;
};

/// RAII span over a (possibly absent) recorder: a null recorder makes every
/// member a no-op, so untraced runs pay one branch per boundary.
class SpanScope {
 public:
  SpanScope(Spans* spans, std::string name, std::string layer, std::uint64_t op)
      : spans_(spans) {
    if (spans_ == nullptr) return;
    span_.name = std::move(name);
    span_.category = std::move(layer);
    span_.core = 0;
    span_.args_json = "\"op\":" + std::to_string(op);
    span_.start = spans_->now();
  }
  ~SpanScope() {
    if (spans_ == nullptr) return;
    span_.end = spans_->now();
    spans_->trace().add_span(std::move(span_));
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void counter(const std::string& name, double value) {
    if (spans_ == nullptr) return;
    char num[32];
    std::snprintf(num, sizeof(num), "%.17g", value);
    span_.args_json += ",\"" + name + "\":" + num;
  }

 private:
  Spans* spans_;
  ocb::scc::JsonTraceCollector::Span span_{};
};

}  // namespace perfbench
