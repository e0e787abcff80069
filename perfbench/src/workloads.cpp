#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "harness/fault_sweep.h"
#include "harness/measurement.h"
#include "noc/topology.h"
#include "scc/chip.h"
#include "scc/trace_json.h"
#include "sim/time.h"
#include "svc/service.h"

namespace perfbench {

namespace {

using namespace ocb;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Harness latencies arrive as microsecond doubles of an integer-picosecond
/// interval; rounding recovers the interval exactly, and integer division
/// gives the same nanoseconds the service ledger uses.
std::uint64_t ns_of_us(double us) {
  return static_cast<std::uint64_t>(std::llround(us * 1e6)) / sim::kNanosecond;
}

// ---- The service under test -------------------------------------------------

/// Two MPB slots, FIFO admission, OC-Bcast k=7 per request: the repo's
/// default service shape (svc/service.h).
svc::ServiceConfig service_config() {
  svc::ServiceConfig config;
  config.algorithm = "ocbcast";
  config.k = 7;
  config.slots = 2;
  config.policy = svc::SchedPolicy::kFifo;
  return config;
}

/// Size mix of every rung: 32 B, 1 KiB and 8 KiB in exact 7:1:2 counts, in
/// a seeded order. The two larger classes are the repo's 4 KiB / 32 KiB
/// service classes (bench_service_traffic) scaled by 1/4, and the weights
/// depart from a 6:3:1 mix on purpose: 6:3:1 puts p90 exactly on the
/// boundary between the two larger classes, so over 200 requests it
/// spreads by about 25% from seed to seed, and that mix costs about 20 ms
/// of host time per request. With 7:1:2, p50 lies well inside the
/// 32 B class and p90 inside the 8 KiB class.
std::vector<std::size_t> service_sizes(int requests, Xoshiro256 order) {
  if (requests % 10 != 0) {
    throw std::logic_error("service rung size must be a multiple of 10");
  }
  std::vector<std::size_t> sizes;
  sizes.insert(sizes.end(), static_cast<std::size_t>(requests / 10 * 7), kCacheLineBytes);
  sizes.insert(sizes.end(), static_cast<std::size_t>(requests / 10), 1024);
  sizes.insert(sizes.end(), static_cast<std::size_t>(requests / 10 * 2), 8192);
  std::shuffle(sizes.begin(), sizes.end(), order);
  return sizes;
}
constexpr std::size_t kLargeRequestBytes = 8192;

// ---- Chip inspection ---------------------------------------------------------

/// Adds link and port counters of a drained chip; utilisations are busy time
/// over the chip's simulated end time.
void inspect_chip(scc::SccChip& chip, Tally& t) {
  const auto end = static_cast<double>(chip.now());
  if (end <= 0.0) return;
  const noc::Topology& topo = chip.topology();
  for (noc::LinkId link = 0; link < topo.num_link_slots(); ++link) {
    t.packets += chip.mesh().link_packets(link);
    t.link_util_max = std::max(
        t.link_util_max,
        static_cast<double>(chip.mesh().link_total_occupancy(link)) / end);
  }
  for (int tile = 0; tile < topo.num_tiles(); ++tile) {
    const sim::ArbitratedServer& port = chip.mpb_port(tile);
    t.port_served += port.total_served();
    t.mpb_port_util_max =
        std::max(t.mpb_port_util_max, static_cast<double>(port.busy_time()) / end);
  }
  for (int mc = 0; mc < topo.num_memory_controllers(); ++mc) {
    const sim::ArbitratedServer& port = chip.mc_port(mc);
    t.port_served += port.total_served();
    t.mc_port_util_max =
        std::max(t.mc_port_util_max, static_cast<double>(port.busy_time()) / end);
  }
}

// ---- Broadcast points -------------------------------------------------------

harness::BcastRunSpec bcast_spec(const BcastOp& op, Spans* spans,
                                 std::uint64_t op_id) {
  harness::BcastRunSpec spec;
  {
    SpanScope s(spans, "Topology::parse", "noc", op_id);
    spec.config.topology = noc::Topology::parse(op.topology);
  }
  spec.algorithm_name = op.algorithm;
  spec.params = op.params;
  spec.root = op.root;
  spec.message_bytes = op.lines * kCacheLineBytes;
  spec.warmup = op.warmup;
  spec.iterations = op.iterations;
  spec.verify = true;
  spec.check = op.check;
  return spec;
}

struct BcastSetup {
  std::unique_ptr<harness::BcastSession> session;
  std::unique_ptr<scc::JsonTraceCollector> trace;
};

BcastSetup construct(const BcastOp& op, Spans* spans, std::uint64_t op_id) {
  SpanScope s(spans, "construct " + op.series, "harness", op_id);
  const harness::BcastRunSpec spec = bcast_spec(op, spans, op_id);
  BcastSetup out;
  {
    SpanScope c(spans, "BcastSession", "harness", op_id);
    out.session = std::make_unique<harness::BcastSession>(spec);
  }
  if (op.trace) {
    out.trace = std::make_unique<scc::JsonTraceCollector>();
    out.session->chip().set_trace_sink(out.trace->sink());
  }
  return out;
}

void run_bcast(const BcastOp& op, Tally& t, Spans* spans, std::uint64_t op_id) {
  BcastSetup setup = construct(op, spans, op_id);
  harness::BcastRunResult r;
  {
    SpanScope s(spans, "BcastSession::run " + op.series + " " +
                           std::to_string(op.lines) + "L " + op.topology,
                "harness", op_id);
    const Clock::time_point t0 = Clock::now();
    r = setup.session->run();
    t.run_s += seconds_since(t0);
    s.counter("events", static_cast<double>(r.events));
    s.counter("sim_end_ps", static_cast<double>(r.end_time));
    s.counter("max_queue_depth", static_cast<double>(r.max_queue_depth));
    if (setup.trace) {
      s.counter("trace_events", static_cast<double>(setup.trace->events().size()));
    }
  }
  {
    SpanScope s(spans, "inspect chip", "scc", op_id);
    inspect_chip(setup.session->chip(), t);
  }

  t.events += r.events;
  t.max_queue_depth = std::max(t.max_queue_depth, r.max_queue_depth);
  t.violations += r.race_violations;
  const double mean_us = r.latency_us.mean();
  t.series_latency_us[op.series].push_back(mean_us);
  t.latency_us.push_back(mean_us);
  if (op.large) t.peak_mbps.push_back(r.throughput_mbps);
  t.fingerprint.push_back(r.events);
  t.fingerprint.push_back(r.end_time);
  for (double us : r.latency_us.samples()) {
    const std::uint64_t ns = ns_of_us(us);
    t.ledger.push_back(LedgerEntry{ns, 0, ns, false});
    t.busy_ns += ns;
    t.fingerprint.push_back(bits_of(us));
  }
  if (!r.content_ok || r.race_violations > 0) {
    ++t.failed;
    std::fprintf(stderr, "FAILED %s %zu lines on %s root %d: %s\n%s",
                 op.series.c_str(), op.lines, op.topology.c_str(), op.root,
                 r.content_ok ? "race violations" : "byte verification",
                 r.race_report.c_str());
  }
}

// ---- Fault runs --------------------------------------------------------------

harness::FaultRunSpec fault_spec(const FaultOp& op) {
  harness::FaultRunSpec spec;
  spec.plan.seed = op.plan_seed;
  spec.plan.rates.mpb_read = op.mpb_read_rate;
  spec.ft.parties = kNumCores;
  spec.use_ft = true;
  spec.root = op.root;
  spec.message_bytes = op.bytes;
  spec.check_races = true;
  return spec;
}

void run_fault(const FaultOp& op, Tally& t, Spans* spans, std::uint64_t op_id) {
  const harness::FaultRunSpec spec = fault_spec(op);
  harness::FaultRunOutcome o;
  {
    SpanScope s(spans, "run_fault_once ft-ocbcast", "fault", op_id);
    const Clock::time_point t0 = Clock::now();
    o = harness::run_fault_once(spec);
    t.run_s += seconds_since(t0);
    s.counter("events", static_cast<double>(o.events));
    s.counter("injections", static_cast<double>(o.injections.total()));
  }
  t.events += o.events;
  t.violations += o.race_violations;
  t.injections += o.injections.total();
  t.survivors += static_cast<std::uint64_t>(o.survivors);
  t.survivors_correct += static_cast<std::uint64_t>(o.correct);
  t.series_latency_us["ft-ocbcast"].push_back(o.latency_us);
  t.latency_us.push_back(o.latency_us);
  const std::uint64_t ns = ns_of_us(o.latency_us);
  t.ledger.push_back(LedgerEntry{ns, 0, ns, false});
  t.busy_ns += ns;
  t.fingerprint.push_back(o.events);
  t.fingerprint.push_back(bits_of(o.latency_us));
  t.fingerprint.push_back(o.injections.total());
  t.fingerprint.push_back(static_cast<std::uint64_t>(o.correct));
  if (!o.all_survivors_correct() || o.race_violations > 0) {
    ++t.failed;
    std::fprintf(stderr,
                 "FAILED ft-ocbcast plan seed %llu: drained=%d correct=%d/%d "
                 "gave_up=%d races=%llu\n%s",
                 static_cast<unsigned long long>(op.plan_seed), o.drained,
                 o.correct, o.survivors, o.gave_up,
                 static_cast<unsigned long long>(o.race_violations),
                 o.race_report.c_str());
    for (const std::string& d : o.stalled_details) {
      std::fprintf(stderr, "  stalled: %s\n", d.c_str());
    }
  }
}

// ---- Service rungs -----------------------------------------------------------

std::unique_ptr<svc::BroadcastService> construct(const ServiceOp& op,
                                                 Spans* spans,
                                                 std::uint64_t op_id) {
  SpanScope s(spans, "construct BroadcastService", "svc", op_id);
  svc::ServiceConfig config = service_config();
  {
    SpanScope p(spans, "Topology::parse", "noc", op_id);
    config.chip.topology = noc::Topology::parse("scc");
  }
  auto service = std::make_unique<svc::BroadcastService>(config);
  service->submit(op.requests);
  return service;
}

void run_service(const ServiceOp& op, Tally& t, Spans* spans,
                 std::uint64_t op_id) {
  std::unique_ptr<svc::BroadcastService> service = construct(op, spans, op_id);
  svc::ServiceMetrics m;
  {
    char name[64];
    std::snprintf(name, sizeof(name), "BroadcastService::run %.3g/ms",
                  op.rate_per_ms);
    SpanScope s(spans, name, "svc", op_id);
    const Clock::time_point t0 = Clock::now();
    m = service->run();
    t.run_s += seconds_since(t0);
    s.counter("events", static_cast<double>(m.engine_events));
    s.counter("rejected", static_cast<double>(m.rejected));
    s.counter("max_queue_depth", static_cast<double>(m.max_queue_depth));
  }
  {
    SpanScope s(spans, "inspect chip", "scc", op_id);
    inspect_chip(service->chip(), t);
  }

  std::vector<LedgerEntry> ledger;
  std::uint64_t last_arrival_ns = 0;
  std::uint64_t last_completion_ns = 0;
  std::uint64_t bad = 0;
  std::vector<double> service_us;
  std::vector<double> large_mbps;
  for (const svc::RequestOutcome& o : service->outcomes()) {
    last_arrival_ns = std::max(last_arrival_ns, o.arrival / sim::kNanosecond);
    t.fingerprint.push_back(o.rejected ? 0 : o.completion);
    if (o.rejected) {
      ledger.push_back(LedgerEntry{kRejectedNs, kRejectedNs, kRejectedNs, true});
      continue;
    }
    if (!o.content_ok) ++bad;
    last_completion_ns = std::max(last_completion_ns, o.completion / sim::kNanosecond);
    ledger.push_back(LedgerEntry{(o.completion - o.arrival) / sim::kNanosecond,
                                 (o.start - o.arrival) / sim::kNanosecond,
                                 (o.completion - o.start) / sim::kNanosecond,
                                 false});
    service_us.push_back(sim::to_us(o.completion - o.start));
    if (o.bytes >= kLargeRequestBytes) {
      large_mbps.push_back(static_cast<double>(o.bytes) /
                           sim::to_us(o.completion - o.start));
    }
  }

  t.events += m.engine_events;
  t.max_queue_depth = std::max(t.max_queue_depth, m.engine_max_queue_depth);
  t.violations += m.race_violations;
  t.svc_requests += m.submitted;
  t.svc_rejected += m.rejected;
  t.fingerprint.push_back(m.engine_events);
  t.fingerprint.push_back(m.makespan);
  t.ladder.push_back(LadderRung{
      op.rate_per_ms, ledger_percentile(ledger, LedgerField::kLatency, 90.0),
      m.rejected, backlog_stable(last_arrival_ns, last_completion_ns, kServiceSloNs)});
  if (op.named) {
    t.ledger = std::move(ledger);
    t.makespan_ns = m.makespan / sim::kNanosecond;
    t.svc_max_queue_depth = m.max_queue_depth;
    t.latency_us.insert(t.latency_us.end(), service_us.begin(), service_us.end());
    t.peak_mbps.insert(t.peak_mbps.end(), large_mbps.begin(), large_mbps.end());
  }
  if (bad > 0 || !m.content_ok || m.race_violations > 0 ||
      m.completed + m.rejected != m.submitted) {
    t.failed += std::max<std::uint64_t>(bad, 1);
    std::fprintf(stderr,
                 "FAILED service rung %.3g/ms: %llu bad deliveries, %llu races, "
                 "%llu of %llu requests unaccounted\n",
                 op.rate_per_ms, static_cast<unsigned long long>(bad),
                 static_cast<unsigned long long>(m.race_violations),
                 static_cast<unsigned long long>(m.submitted - m.completed - m.rejected),
                 static_cast<unsigned long long>(m.submitted));
  }
}

// ---- Workload definitions ------------------------------------------------------

/// Seed-derived stream for one purpose of one workload, so adding a draw to
/// one purpose never shifts another.
Xoshiro256 stream(std::uint64_t seed, std::uint64_t purpose) {
  return Xoshiro256(seed * 0x9e3779b97f4a7c15ull + purpose);
}

CoreId pick_root(Xoshiro256& rng, int cores) {
  return static_cast<CoreId>(rng.next_below(static_cast<std::uint64_t>(cores)));
}

struct Series {
  std::string series;
  std::string algorithm;
  coll::Params params;
};

const std::vector<Series>& paper_series() {
  static const std::vector<Series> series = [] {
    coll::Params k2;
    k2.k = 2;
    coll::Params k7;
    k7.k = 7;
    coll::Params k47;
    k47.k = 47;
    return std::vector<Series>{
        {"ocbcast_k2", "ocbcast", k2},
        {"ocbcast_k7", "ocbcast", k7},
        {"ocbcast_k47", "ocbcast", k47},
        {"binomial", "binomial", coll::Params{}},
        {"scatter-allgather", "scatter-allgather", coll::Params{}},
        {"onesided-sag", "onesided-sag", coll::Params{}},
    };
  }();
  return series;
}

// Closed loop, one broadcast at a time on the 48-core SCC: the paper's own
// traffic, where host time is the engine queue, the BulkOp parity chain and
// mesh reservations with nothing in the way.
Workload paper_sweep(std::uint64_t seed) {
  Workload w;
  w.name = "paper_sweep";
  w.topologies = {"scc"};
  // A subset of the Fig. 8a sizes (both sides of the 96-line chunk
  // boundary) plus two large sizes, sized so a round takes a few seconds.
  const std::vector<std::size_t> small = {1, 4, 8, 16, 48, 96, 97, 144, 192};
  const std::vector<std::size_t> large = {512, 1024};
  Xoshiro256 roots = stream(seed, 1);
  for (const Series& s : paper_series()) {
    for (std::size_t lines : small) {
      w.ops.push_back(BcastOp{s.series, s.algorithm, s.params, "scc", lines,
                              pick_root(roots, kNumCores)});
    }
    for (std::size_t lines : large) {
      BcastOp op{s.series, s.algorithm, s.params, "scc", lines,
                 pick_root(roots, kNumCores)};
      op.large = true;
      w.ops.push_back(op);
    }
  }
  return w;
}

// The ocbcast shapes under the race checker and a trace collector, then
// FT-OC-Bcast under seeded transient corruption with check_races: observer
// dispatch, vector clocks, trace recording and the fault slow path.
Workload observed_faults(std::uint64_t seed) {
  Workload w;
  w.name = "observed_faults";
  w.topologies = {"scc"};
  Xoshiro256 roots = stream(seed, 1);
  for (const Series& s : paper_series()) {
    if (s.algorithm != "ocbcast") continue;
    for (std::size_t lines : {std::size_t{8}, std::size_t{1024}}) {
      BcastOp op{s.series, s.algorithm, s.params, "scc", lines,
                 pick_root(roots, kNumCores)};
      op.check = true;
      op.trace = true;
      op.large = lines >= 1024;
      w.ops.push_back(op);
    }
  }
  Xoshiro256 plans = stream(seed, 2);
  for (int i = 0; i < 16; ++i) {
    w.ops.push_back(FaultOp{plans.next(), pick_root(plans, kNumCores),
                            16 * 1024, 1e-3});
  }
  return w;
}

ServiceOp service_rung(double rate_per_ms, bool named, int requests,
                       std::uint64_t arrival_seed, Xoshiro256 order) {
  svc::TrafficSpec traffic;
  traffic.requests = requests;
  traffic.mean_gap_ns = static_cast<std::uint64_t>(std::llround(1e6 / rate_per_ms));
  traffic.seed = arrival_seed;
  std::vector<svc::Request> out = svc::generate_requests(traffic);
  const std::vector<std::size_t> sizes = service_sizes(requests, order);
  for (std::size_t r = 0; r < out.size(); ++r) out[r].bytes = sizes[r];
  return ServiceOp{rate_per_ms, named, std::move(out)};
}

// Open loop: Poisson arrivals into the broadcast service at a ladder of
// offered rates. Concurrent collectives multiplex cores, so the coalesced
// BulkOp path steps aside and port arbitration and admission dominate.
Workload service_open_loop(std::uint64_t seed) {
  Workload w;
  w.name = "service_open_loop";
  w.open_loop = true;
  w.topologies = {"scc"};
  // The named rate, 10 requests/ms (about a third of capacity), is the
  // ladder's bottom rung; its 200 requests give the p50/p90 metrics.
  w.ops.push_back(service_rung(10.0, true, 200, stream(seed, 10).next(),
                               stream(seed, 20)));
  // Rungs about 7% apart around the knee, where the two slots saturate (the
  // last rung to meet the SLO is 26.8, 28.7 or 30.7/ms on seeds 1..10).
  // Every rung replays one arrival pattern and size order scaled to its
  // rate, so p90 grows smoothly from rung to rung; 400 requests per rung
  // keep the seed-to-seed spread of the knee within about one rung.
  const std::uint64_t arrivals = stream(seed, 11).next();
  for (double rate : {25.0, 26.8, 28.7, 30.7, 32.8}) {
    w.ops.push_back(service_rung(rate, false, 400, arrivals, stream(seed, 21)));
  }
  return w;
}

// Large meshes: the engine queue runs 512 to 1024 deep, route tables and
// interposer links are big, and hier-ocbcast's notify path runs.
Workload mesh_scaling(std::uint64_t seed) {
  Workload w;
  w.name = "mesh_scaling";
  w.topologies = {"mesh:16x16", "dies:2x2:mesh:16x8"};
  Xoshiro256 roots = stream(seed, 1);
  coll::Params whole_chip;
  whole_chip.parties = 0;
  // Two roots at 96 lines, one at 192: a 1024-core point costs about a host
  // second, and the extra 96-line root keeps the ledger median off the
  // worst-placed root.
  const std::pair<std::size_t, int> sizes[] = {{96, 2}, {192, 1}};
  for (const std::string& topology : w.topologies) {
    const int cores = noc::Topology::parse(topology).num_cores();
    for (const char* algorithm : {"ocbcast", "hier-ocbcast"}) {
      for (const auto& [lines, root_count] : sizes) {
        for (int r = 0; r < root_count; ++r) {
          BcastOp op{std::string(algorithm) == "ocbcast" ? "ocbcast_k7" : algorithm,
                     algorithm, whole_chip, topology, lines, pick_root(roots, cores)};
          op.warmup = 0;  // one measured broadcast, no warm-up
          op.large = lines == 192;
          w.ops.push_back(op);
        }
      }
    }
  }
  return w;
}

/// Operations an Operation counts as: one per broadcast point or fault run,
/// one per request of a service rung.
std::uint64_t operation_count(const Operation& op) {
  const auto* s = std::get_if<ServiceOp>(&op);
  return s != nullptr ? s->requests.size() : 1;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_sweep", "observed_faults", "service_open_loop", "mesh_scaling"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_sweep") return paper_sweep(seed);
  if (name == "observed_faults") return observed_faults(seed);
  if (name == "service_open_loop") return service_open_loop(seed);
  if (name == "mesh_scaling") return mesh_scaling(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

double setup_operation(const Operation& op, Spans* spans, std::uint64_t op_id) {
  const Clock::time_point t0 = Clock::now();
  if (const auto* b = std::get_if<BcastOp>(&op)) {
    const BcastSetup setup = construct(*b, spans, op_id);
    return seconds_since(t0);  // destruction is not set-up
  }
  if (const auto* s = std::get_if<ServiceOp>(&op)) {
    const auto service = construct(*s, spans, op_id);
    return seconds_since(t0);
  }
  // harness::run_fault_once builds its chip inside the run call.
  return 0.0;
}

double chip_setup_seconds(const std::vector<std::string>& topologies,
                          Spans* spans) {
  double total = 0.0;
  for (const std::string& spec : topologies) {
    SpanScope s(spans, "SccChip " + spec, "noc", 0);
    const Clock::time_point t0 = Clock::now();
    auto chip = std::make_unique<scc::SccChip>(noc::Topology::parse(spec));
    total += seconds_since(t0);
  }
  return total;
}

void run_operation(const Operation& op, Tally& tally, Spans* spans,
                   std::uint64_t op_id) {
  tally.attempted += operation_count(op);
  try {
    std::visit(
        [&](const auto& o) {
          using T = std::decay_t<decltype(o)>;
          if constexpr (std::is_same_v<T, BcastOp>) run_bcast(o, tally, spans, op_id);
          if constexpr (std::is_same_v<T, FaultOp>) run_fault(o, tally, spans, op_id);
          if constexpr (std::is_same_v<T, ServiceOp>) run_service(o, tally, spans, op_id);
        },
        op);
  } catch (const std::exception& e) {
    // A deadlocked broadcast surfaces here (BcastSession::run ensures the
    // queue drained), as does any precondition the operation violated.
    tally.failed += operation_count(op);
    std::fprintf(stderr, "FAILED operation %llu: %s\n",
                 static_cast<unsigned long long>(op_id), e.what());
  }
}

Tally run_round(const Workload& workload, HostSpeedReference& reference,
                Spans* spans, std::uint64_t first_op_id) {
  Tally tally;
  std::uint64_t id = first_op_id;
  double ref_before = reference.sample();
  for (const Operation& op : workload.ops) {
    const double before = tally.run_s;
    {
      // Parent of every span the operation records, so a layer's self
      // time is its span minus its children.
      SpanScope s(spans,
                  spans != nullptr ? "operation " + std::to_string(id) : std::string(),
                  "perfbench", id);
      run_operation(op, tally, spans, id);
    }
    ++id;
    tally.op_run_s.push_back(tally.run_s - before);
    const double ref_after = reference.sample();
    tally.op_ref_s.push_back((ref_before + ref_after) / 2.0);
    ref_before = ref_after;
  }
  return tally;
}

}  // namespace perfbench
