#include "probes.h"

#include <chrono>
#include <stdexcept>
#include <vector>

#include "bench_math.h"
#include "check/checker.h"
#include "coll/adaptive.h"
#include "common/rng.h"
#include "harness/measurement.h"
#include "noc/mesh.h"
#include "noc/topology.h"
#include "scc/chip.h"
#include "scc/config.h"
#include "scc/trace_json.h"
#include "sim/engine.h"
#include "sim/resource.h"

namespace perfbench {

namespace {

using namespace ocb;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;

/// Receives probe results the optimiser must not discard.
volatile ocb::sim::Time g_sink = 0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median over kReps calls of `once`, each returning a per-call cost.
template <typename Fn>
double median_of_reps(Fn&& once) {
  std::vector<double> samples;
  for (int i = 0; i < kReps; ++i) samples.push_back(once());
  return median(samples);
}

// ---- sim::Engine at a fixed queue depth ----------------------------------------

/// Every event schedules one successor a short random delay ahead, so the
/// queue stays at the depth it was primed with: each event is one pop and
/// one push, the simulator's steady state.
struct QueueProbe {
  sim::Engine* engine;
  Xoshiro256 rng;
  std::uint64_t remaining;
};

void queue_step(void* ctx) {
  auto* p = static_cast<QueueProbe*>(ctx);
  if (p->remaining == 0) return;
  --p->remaining;
  p->engine->schedule_fn(p->engine->now() + 1 + p->rng.next_below(sim::kMicrosecond),
                         &queue_step, p);
}

double queue_op_ns(std::size_t depth) {
  constexpr std::uint64_t kEvents = 1'000'000;
  return median_of_reps([depth] {
    sim::Engine engine;
    QueueProbe probe{&engine, Xoshiro256(depth), kEvents};
    for (std::size_t i = 0; i < depth; ++i) {
      engine.schedule_fn(1 + probe.rng.next_below(sim::kMicrosecond), &queue_step,
                         &probe);
    }
    const Clock::time_point t0 = Clock::now();
    const sim::RunResult r = engine.run();
    return seconds_since(t0) * 1e9 / static_cast<double>(r.events_processed);
  });
}

// ---- sim::ArbitratedServer ---------------------------------------------------

/// Eight requesters with distinct port priorities keep one positional
/// server saturated: each re-acquires as soon as its service completes.
struct Requester {
  sim::ArbitratedServer* server;
  std::uint64_t* remaining;
  int priority;
};

void requester_done(void* ctx) {
  auto* r = static_cast<Requester*>(ctx);
  if (*r->remaining == 0) return;
  --*r->remaining;
  r->server->acquire(10 * sim::kNanosecond, r->priority, &requester_done, r);
}

double server_acquire_ns() {
  constexpr std::uint64_t kAcquisitions = 1'000'000;
  return median_of_reps([] {
    sim::Engine engine;
    sim::ArbitratedServer server(engine, sim::Arbitration::kPositional);
    std::uint64_t remaining = kAcquisitions;
    std::vector<Requester> requesters;
    for (int i = 0; i < 8; ++i) requesters.push_back(Requester{&server, &remaining, i});
    const Clock::time_point t0 = Clock::now();
    for (Requester& r : requesters) requester_done(&r);
    engine.run();
    return seconds_since(t0) * 1e9 / static_cast<double>(server.total_served());
  });
}

// ---- noc::Mesh -------------------------------------------------------------------

double reserve_path_ns(const std::string& topology_spec) {
  constexpr std::uint64_t kPackets = 2'000'000;
  const noc::Topology topology = noc::Topology::parse(topology_spec);
  const scc::SccConfig config;
  Xoshiro256 rng(7);
  std::vector<std::pair<noc::TileCoord, noc::TileCoord>> pairs;
  for (int i = 0; i < 4096; ++i) {
    const auto tiles = static_cast<std::uint64_t>(topology.num_tiles());
    pairs.emplace_back(topology.tile_coord(static_cast<int>(rng.next_below(tiles))),
                       topology.tile_coord(static_cast<int>(rng.next_below(tiles))));
  }
  return median_of_reps([&] {
    sim::Engine engine;
    noc::Mesh mesh(engine, topology, config.l_hop, config.link_occupancy);
    sim::Time sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      const auto& [src, dst] = pairs[i % pairs.size()];
      sink ^= mesh.reserve_path(i * sim::kNanosecond, src, dst);
    }
    const double s = seconds_since(t0);
    g_sink = sink;
    return s * 1e9 / static_cast<double>(kPackets);
  });
}

// ---- check::RaceChecker --------------------------------------------------------

/// Each core reads and writes lines of its own MPB: the per-line bookkeeping
/// (line state lookup, epoch compare, read-set update) without a violation.
double check_line_ns() {
  constexpr std::uint64_t kLines = 2'000'000;
  return median_of_reps([] {
    scc::SccChip chip;
    check::RaceChecker checker(chip);
    Xoshiro256 rng(11);
    CacheLine value{};
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kLines; ++i) {
      const auto core = static_cast<CoreId>(i % kNumCores);
      const scc::LineTxn txn{i % 3 == 0 ? scc::TraceOp::kMpbWrite
                                         : scc::TraceOp::kMpbRead,
                             core, core, rng.next_below(kMpbCacheLines),
                             i * sim::kNanosecond};
      if (txn.op == scc::TraceOp::kMpbWrite) {
        checker.on_write(txn, value);
      } else {
        checker.on_read(txn, value);
      }
    }
    const double s = seconds_since(t0);
    if (checker.total_detected() != 0) {
      throw std::logic_error("race-checker probe raised a violation");
    }
    return s * 1e9 / static_cast<double>(kLines);
  });
}

// ---- Observer and dispatch overheads -------------------------------------------

enum class Observe { kNone, kCheck, kTrace };

/// Host seconds of one run() call: a single `lines`-line broadcast (k=7
/// where the algorithm has a fan-out) from core 0 of the SCC.
double bcast_run_seconds(const std::string& algorithm, std::size_t lines,
                         Observe observe, double* trace_events = nullptr) {
  harness::BcastRunSpec spec;
  spec.algorithm_name = algorithm;
  spec.params.k = 7;
  spec.message_bytes = lines * kCacheLineBytes;
  spec.warmup = 0;
  spec.iterations = 1;
  spec.check = observe == Observe::kCheck;
  harness::BcastSession session(spec);
  scc::JsonTraceCollector trace;
  if (observe == Observe::kTrace) session.chip().set_trace_sink(trace.sink());
  const Clock::time_point t0 = Clock::now();
  const harness::BcastRunResult r = session.run();
  const double s = seconds_since(t0);
  if (!r.content_ok || r.race_violations > 0) {
    throw std::runtime_error("observer probe broadcast failed verification");
  }
  if (trace_events != nullptr) {
    *trace_events = static_cast<double>(trace.events().size());
  }
  return s;
}

}  // namespace

ProbeResults run_probes(const std::string& mesh_topology, Spans* spans) {
  ProbeResults p;
  {
    SpanScope s(spans, "Engine queue probe", "sim", 0);
    p.queue_op_ns_d48 = queue_op_ns(48);
    p.queue_op_ns_d97 = queue_op_ns(97);
    p.queue_op_ns_d1024 = queue_op_ns(1024);
  }
  {
    SpanScope s(spans, "ArbitratedServer probe", "sim", 0);
    p.server_acquire_ns = server_acquire_ns();
  }
  {
    SpanScope s(spans, "Mesh::reserve_path probe " + mesh_topology, "noc", 0);
    p.reserve_path_ns = reserve_path_ns(mesh_topology);
  }
  {
    SpanScope s(spans, "RaceChecker probe", "check", 0);
    p.check_line_ns = check_line_ns();
  }
  {
    SpanScope s(spans, "observer overhead probe", "scc", 0);
    constexpr std::size_t kLines = 1024;
    const double plain = median_of_reps(
        [] { return bcast_run_seconds("ocbcast", kLines, Observe::kNone); });
    p.check_overhead_ratio = median_of_reps([] {
      return bcast_run_seconds("ocbcast", kLines, Observe::kCheck);
    }) / plain;
    p.trace_overhead_ratio = median_of_reps([&p] {
      return bcast_run_seconds("ocbcast", kLines, Observe::kTrace, &p.trace_events);
    }) / plain;
  }
  {
    SpanScope s(spans, "adaptive dispatch probe", "coll", 0);
    coll::register_adaptive();
    auto total = [](const char* algorithm) {
      double sum = 0.0;
      for (std::size_t lines : {std::size_t{1}, std::size_t{96}, std::size_t{1024}}) {
        sum += bcast_run_seconds(algorithm, lines, Observe::kNone);
      }
      return sum;
    };
    p.adaptive_dispatch_ratio = median_of_reps([&] { return total("adaptive"); }) /
                                median_of_reps([&] { return total("ocbcast"); });
  }
  {
    SpanScope s(spans, "rma completion probe", "rma", 0);
    const scc::SccConfig config;
    auto op_us = [&config](harness::OpKind kind, int distance) {
      const auto [actor, target] = harness::core_pair_at_mpb_distance(distance);
      return harness::measure_op_completion_us(config, kind, actor, target, 1);
    };
    p.rma_get_us_d1 = op_us(harness::OpKind::kGetMpbToMpb, 1);
    p.rma_get_us_d9 = op_us(harness::OpKind::kGetMpbToMpb, 9);
    p.rma_put_us_d1 = op_us(harness::OpKind::kPutMpbToMpb, 1);
    p.rma_put_us_d9 = op_us(harness::OpKind::kPutMpbToMpb, 9);
  }
  return p;
}

}  // namespace perfbench
