// Per-layer probes: small programs built only from each layer's public
// constructors, timing one kind of call in isolation. Host-time probes
// report the median of several repetitions; rma probes report simulated
// time and are exact.
#pragma once

#include <string>

#include "spans.h"

namespace perfbench {

struct ProbeResults {
  double queue_op_ns_d48 = 0.0;    ///< sim::Engine schedule_fn + pop at depth 48
  double queue_op_ns_d97 = 0.0;
  double queue_op_ns_d1024 = 0.0;
  double server_acquire_ns = 0.0;  ///< ArbitratedServer::acquire to completion
  double reserve_path_ns = 0.0;    ///< noc::Mesh::reserve_path
  double check_line_ns = 0.0;      ///< RaceChecker::on_read / on_write
  double check_overhead_ratio = 0.0;  ///< checked / plain broadcast host time
  double trace_overhead_ratio = 0.0;  ///< traced / plain broadcast host time
  double trace_events = 0.0;          ///< trace events of that broadcast
  double adaptive_dispatch_ratio = 0.0;  ///< "adaptive" / "ocbcast" host time
  double rma_get_us_d1 = 0.0;      ///< simulated 1-line get at MPB distance 1
  double rma_get_us_d9 = 0.0;
  double rma_put_us_d1 = 0.0;
  double rma_put_us_d9 = 0.0;
};

/// Runs every probe. `mesh_topology` is the Topology::parse spec whose mesh
/// the reserve_path probe drives (the workload's largest topology).
ProbeResults run_probes(const std::string& mesh_topology, Spans* spans);

}  // namespace perfbench
