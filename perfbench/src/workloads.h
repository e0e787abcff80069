// The benchmark's four workloads and the operations they are made of.
//
// A workload is a fixed list of operations built from the seed (which
// picks roots and arrival times). One ROUND executes the whole list;
// ocb_perfbench repeats rounds for the requested number of seconds. Every
// operation is split into set-up (topology parse, chip / session / service
// construction) and the run call, and only the run call counts toward
// run_s. Simulated results are deterministic, so every round of a process
// must reproduce the first one exactly (Tally::fingerprint).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "bench_math.h"
#include "coll/registry.h"
#include "common/types.h"
#include "host_speed.h"
#include "spans.h"
#include "svc/traffic.h"

namespace perfbench {

/// One broadcast point: `warmup + iterations` broadcasts of `lines` cache
/// lines from `root` in one harness::BcastSession. Every iteration uses an
/// uncached private-memory offset and every delivery is byte-verified.
struct BcastOp {
  std::string series;     ///< "ocbcast_k7", "binomial", ...
  std::string algorithm;  ///< registry name
  ocb::coll::Params params{};
  std::string topology = "scc";  ///< noc::Topology::parse spec
  std::size_t lines = 1;
  ocb::CoreId root = 0;
  int warmup = 1;
  int iterations = 1;
  bool check = false;  ///< install a check::RaceChecker
  bool trace = false;  ///< install a scc::JsonTraceCollector sink
  bool large = false;  ///< counts toward sim_peak_mbps
};

/// One FT-OC-Bcast under a seeded transient-corruption plan, race-checked
/// (harness::run_fault_once builds its own chip).
struct FaultOp {
  std::uint64_t plan_seed = 1;
  ocb::CoreId root = 0;
  std::size_t bytes = 0;
  double mpb_read_rate = 0.0;
};

/// One offered-rate rung of the broadcast service: a fresh
/// svc::BroadcastService fed `requests`.
struct ServiceOp {
  double rate_per_ms = 0.0;
  bool named = false;  ///< the rung the svc_latency_ns percentiles report
  std::vector<ocb::svc::Request> requests;
};

using Operation = std::variant<BcastOp, FaultOp, ServiceOp>;

struct Workload {
  std::string name;
  bool open_loop = false;
  std::vector<std::string> topologies;  ///< every topology the ops use
  std::vector<Operation> ops;
};

/// The service workload's latency limit on p90 (arrival -> completion),
/// fixed once from an unloaded run: five times the 293 us p90 of the same
/// size mix offered at 5 requests/ms (seed 1), where requests almost never
/// queue and p90 is the 8 KiB class's service time. Five times puts the
/// limit where p90 climbs steeply as the two slots saturate, so the rate
/// that meets it tracks the service's capacity.
inline constexpr std::uint64_t kServiceSloNs = 5 * 293'000;

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds a workload from its seed; throws std::invalid_argument on an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Everything one round (or one operation) produced.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double run_s = 0.0;  ///< host seconds inside run calls
  std::vector<double> op_run_s;  ///< the same, per operation, in order
  /// Host seconds of a HostSpeedReference run around each operation (the
  /// mean of the samples just before and just after it), in order.
  std::vector<double> op_ref_s;

  // sim
  std::uint64_t events = 0;
  std::uint64_t max_queue_depth = 0;
  // noc / scc ports, over the chips the benchmark can inspect (fault runs
  // build their chip inside harness::run_fault_once)
  std::uint64_t packets = 0;
  std::uint64_t port_served = 0;
  double link_util_max = 0.0;
  double mpb_port_util_max = 0.0;
  double mc_port_util_max = 0.0;
  // check / fault
  std::uint64_t violations = 0;
  std::uint64_t injections = 0;
  std::uint64_t survivors = 0;
  std::uint64_t survivors_correct = 0;
  // collectives: mean simulated latency of each closed-loop point
  std::map<std::string, std::vector<double>> series_latency_us;
  std::vector<double> latency_us;  ///< every closed-loop point / request
  std::vector<double> peak_mbps;   ///< large-message points only
  // request ledger: closed-loop iterations (no queue) or the named rung
  std::vector<LedgerEntry> ledger;
  std::vector<LadderRung> ladder;
  std::uint64_t busy_ns = 0;  ///< closed loop: sum of request latencies
  std::uint64_t makespan_ns = 0;
  std::uint64_t svc_max_queue_depth = 0;
  std::uint64_t svc_requests = 0;  ///< over every rung
  std::uint64_t svc_rejected = 0;

  /// Simulated outputs in operation order (events, end times, latency bit
  /// patterns); equal fingerprints mean bit-identical simulations.
  std::vector<std::uint64_t> fingerprint;
};

/// Constructs the operation's simulator objects (parse + chip + session or
/// service) and destroys them; returns the construction seconds.
double setup_operation(const Operation& op, Spans* spans, std::uint64_t op_id);

/// Host seconds to construct one bare SccChip (mesh, route tables, ports,
/// memories) per listed topology.
double chip_setup_seconds(const std::vector<std::string>& topologies,
                          Spans* spans);

/// Runs one operation end to end and adds its results to `tally`. A failed
/// verification, race, stall or exception counts as a failed operation;
/// its details go to stderr.
void run_operation(const Operation& op, Tally& tally, Spans* spans,
                   std::uint64_t op_id);

/// Runs every operation of the workload once, sampling `reference` before
/// the first operation and after each one.
Tally run_round(const Workload& workload, HostSpeedReference& reference,
                Spans* spans, std::uint64_t first_op_id);

}  // namespace perfbench
