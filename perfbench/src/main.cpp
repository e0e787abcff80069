// ocb_perfbench — runs one benchmark workload and prints its metrics.
//
//   ocb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace_out PATH]
//
// With --trace 0 the process measures the end-to-end metrics: set-up time,
// host time inside the run calls, peak memory, and the simulated latency,
// throughput and service-level figures. With --trace 1 it measures the
// per-layer metrics instead: it alternates untraced rounds with rounds that
// record a span around every call into a layer, runs the per-layer probes,
// and writes the spans as Chrome-trace JSON to --trace_out.
//
// Before measuring, the workload's first operation runs twice and must
// reproduce itself bit for bit; every later round must reproduce the first.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "host_speed.h"
#include "model/broadcast_model.h"
#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Set-up passes: at least kMinSetupPasses, and more while they add up to
/// less than kSetupSeconds (up to kMaxSetupPasses), so sub-millisecond
/// set-ups still get a steady median. The host-speed reference is sampled
/// before the passes, after them, and every kSetupSampleSeconds between.
constexpr std::size_t kMinSetupPasses = 5;
constexpr std::size_t kMaxSetupPasses = 1000;
constexpr double kSetupSeconds = 1.0;
constexpr double kSetupSampleSeconds = 0.1;

#ifdef OCB_SIM_STATS
constexpr const char* kSimStats = "on";
#else
constexpr const char* kSimStats = "off";
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "ocb_perfbench: %s\nusage: ocb_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace_out PATH]\nworkloads:",
               problem.c_str());
  for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// Whole-string unsigned decimal parse; anything else is a usage error.
std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return std::stoull(text);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
      have[1] = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 3600) usage("--seconds must be 1..3600");
      args.seconds = static_cast<double>(s);
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      args.trace = value == "1";
      have[3] = true;
    } else if (flag == "--trace_out") {
      args.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

/// The benchmark measures the serial simulator: a set OCB_PDES_THREADS or
/// OCB_CHECK would silently change what every operation runs.
void require_serial_environment() {
  for (const char* var : {"OCB_PDES_THREADS", "OCB_CHECK"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0) {
      usage(std::string(var) + " must be unset for benchmark runs");
    }
  }
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- The paper's reference points --------------------------------------------

/// Runs the fixed Fig. 8 reference points (root 0, SCC) that paper_error_pct
/// and model.residual_pct are computed from. Every workload runs them, so
/// both metrics exist on every workload and are equal across workloads.
struct Anchor {
  PaperPoints points;
  double model_residual_pct = 0.0;
};

Anchor run_anchor(Tally& counts) {
  auto point = [&counts](const char* algorithm, int k, std::size_t lines,
                         double* mbps = nullptr) {
    BcastOp op;
    op.series = "anchor";
    op.algorithm = algorithm;
    op.params.k = k;
    op.lines = lines;
    Tally t;
    run_operation(op, t, nullptr, 0);
    counts.attempted += t.attempted;
    counts.failed += t.failed;
    if (t.latency_us.empty()) return 0.0;
    if (mbps != nullptr) {
      *mbps = static_cast<double>(lines * ocb::kCacheLineBytes) / t.latency_us[0];
    }
    return t.latency_us[0];
  };
  Anchor a;
  PaperPoints& p = a.points;
  p.ocbcast_k7_1line_us = point("ocbcast", 7, 1);
  p.binomial_1line_us = point("binomial", 7, 1);
  p.ocbcast_k2_144_us = point("ocbcast", 2, 144);
  p.ocbcast_k7_144_us = point("ocbcast", 7, 144);
  double k7_mbps = 0.0;
  double sag_mbps = 0.0;
  point("ocbcast", 7, 1024, &k7_mbps);
  point("scatter-allgather", 7, 1024, &sag_mbps);
  p.peak_ratio = sag_mbps > 0.0 ? k7_mbps / sag_mbps : 0.0;

  // The contention-free points against the reconstructed complete model.
  const ocb::model::BroadcastModel model(ocb::model::ModelParams::paper(), {});
  const std::pair<double, ocb::sim::Duration> pairs[] = {
      {p.ocbcast_k7_1line_us, model.ocbcast_latency(1, 7)},
      {p.binomial_1line_us, model.binomial_latency(1)},
      {p.ocbcast_k2_144_us, model.ocbcast_latency(144, 2)},
      {p.ocbcast_k7_144_us, model.ocbcast_latency(144, 7)},
  };
  double sum = 0.0;
  for (const auto& [sim_us, modeled] : pairs) {
    const double model_us = ocb::sim::to_us(modeled);
    sum += std::abs(sim_us - model_us) / model_us;
  }
  a.model_residual_pct = sum / static_cast<double>(std::size(pairs)) * 100.0;
  return a;
}

// ---- Output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string render_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(num, sizeof(num), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

/// Peak resident memory of the process, less the host-speed reference's
/// buffer, which stays resident from before set-up to the end.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return (static_cast<double>(usage.ru_maxrss) * 1024.0 -  // ru_maxrss is KiB
          static_cast<double>(HostSpeedReference::kBufferBytes)) /
         (1024.0 * 1024.0);
}

/// Closed-loop series every workload reports, in output order.
const std::vector<std::string>& coll_series() {
  static const std::vector<std::string> series = {
      "ocbcast_k2", "ocbcast_k7",   "ocbcast_k47", "binomial",
      "scatter-allgather", "onesided-sag", "ft-ocbcast", "hier-ocbcast"};
  return series;
}

int run(const Args& args) {
  const Workload workload = make_workload(args.workload, args.seed);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# host hardware_concurrency=%u build_type=%s ocb_sim_stats=%s\n",
              std::thread::hardware_concurrency(), OCB_PERFBENCH_BUILD_TYPE,
              kSimStats);

  Tally counts;  // attempted/failed over every checked operation
  bool deterministic = true;

  // 1. The first operation, twice: any difference is nondeterminism.
  {
    Tally a;
    Tally b;
    run_operation(workload.ops.front(), a, nullptr, 0);
    run_operation(workload.ops.front(), b, nullptr, 0);
    counts.attempted += a.attempted + b.attempted;
    counts.failed += a.failed + b.failed;
    if (a.fingerprint != b.fingerprint || a.events != b.events) {
      deterministic = false;
      std::fprintf(stderr, "NONDETERMINISTIC: the first operation ran twice with "
                           "different events or simulated latency\n");
    }
  }

  // 2. The paper's reference points.
  const Anchor anchor = run_anchor(counts);

  // 3. Set-up, several passes: the median pass, scaled to reference speed
  // by the median reference sample of the set-up phase.
  HostSpeedReference reference;
  std::vector<double> setup_passes;
  std::vector<double> chip_passes;
  std::vector<double> setup_ref_s = {reference.sample()};
  double setup_total = 0.0;
  double since_sample = 0.0;
  while (setup_passes.size() < kMinSetupPasses ||
         (setup_total < kSetupSeconds && setup_passes.size() < kMaxSetupPasses)) {
    double s = 0.0;
    for (const Operation& op : workload.ops) s += setup_operation(op, nullptr, 0);
    setup_passes.push_back(s);
    chip_passes.push_back(chip_setup_seconds(workload.topologies, nullptr));
    setup_total += s + chip_passes.back();
    since_sample += s + chip_passes.back();
    if (since_sample >= kSetupSampleSeconds) {
      setup_ref_s.push_back(reference.sample());
      since_sample = 0.0;
    }
  }
  setup_ref_s.push_back(reference.sample());
  const double setup_scale = kReferenceSeconds / median(setup_ref_s);

  // 4. Rounds for the requested time. Traced runs alternate untraced and
  // traced rounds, so both medians see the same host conditions.
  Spans spans;
  std::vector<Tally> rounds;
  std::vector<double> traced_run_s;
  std::uint64_t next_op_id = 1;
  const Clock::time_point start = Clock::now();
  double last_round_s = 0.0;
  while (rounds.empty() ||
         seconds_since(start) + last_round_s <= args.seconds) {
    const Clock::time_point r0 = Clock::now();
    rounds.push_back(run_round(workload, reference, nullptr, 0));
    if (args.trace) {
      Tally traced = run_round(workload, reference, &spans, next_op_id);
      next_op_id += workload.ops.size();
      traced_run_s.push_back(traced.run_s);
      counts.attempted += traced.attempted;
      counts.failed += traced.failed;
      if (traced.fingerprint != rounds.front().fingerprint) deterministic = false;
    }
    last_round_s = seconds_since(r0);
  }
  std::vector<double> round_run_s;
  for (const Tally& r : rounds) {
    round_run_s.push_back(r.run_s);
    counts.attempted += r.attempted;
    counts.failed += r.failed;
    if (r.fingerprint != rounds.front().fingerprint) deterministic = false;
  }
  if (!deterministic) {
    std::fprintf(stderr, "NONDETERMINISTIC: a round's simulated results differ "
                         "from the first round's\n");
  }
  const Tally& first = rounds.front();
  // run_s sums each operation's median over the rounds, so a host hiccup
  // during one operation of one round does not move it. Each time is first
  // scaled to reference speed by the reference samples around it, so a
  // host that slows down for minutes does not move it either; run_wall_s
  // is the same sum unscaled.
  double run_s = 0.0;
  double run_wall_s = 0.0;
  std::vector<double> ref_s;
  for (std::size_t i = 0; i < first.op_run_s.size(); ++i) {
    std::vector<double> scaled;
    std::vector<double> wall;
    for (const Tally& r : rounds) {
      scaled.push_back(r.op_run_s[i] / r.op_ref_s[i] * kReferenceSeconds);
      wall.push_back(r.op_run_s[i]);
      ref_s.push_back(r.op_ref_s[i]);
    }
    run_s += median(scaled);
    run_wall_s += median(wall);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double p50 = static_cast<double>(
        ledger_percentile(first.ledger, LedgerField::kLatency, 50.0));
    const double p90 = static_cast<double>(
        ledger_percentile(first.ledger, LedgerField::kLatency, 90.0));
    const double max_rate =
        workload.open_loop
            ? pick_slo_rate(first.ladder, kServiceSloNs)
            : static_cast<double>(first.ledger.size()) /
                  (static_cast<double>(first.busy_ns) / 1e6);
    metrics = {
        {"setup_s", median(setup_passes) * setup_scale, "s"},
        {"run_s", run_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_latency_us.geomean", geomean(first.latency_us), "us"},
        {"sim_peak_mbps", geomean(first.peak_mbps), "MB/s"},
        {"paper_error_pct", paper_error_pct(anchor.points), "%"},
        {"svc_latency_ns.p50", p50, "ns"},
        {"svc_latency_ns.p90", p90, "ns"},
        {"svc_max_rate_per_ms", max_rate, "1/ms"},
    };
  } else {
    const ProbeResults probes = run_probes(workload.topologies.back(), &spans);
    const double untraced = run_s;
    const bool open = workload.open_loop;
    auto series_us = [&first](const std::string& series) {
      const auto it = first.series_latency_us.find(series);
      return it == first.series_latency_us.end() ? 0.0 : geomean(it->second);
    };
    metrics = {
        {"sim.events", static_cast<double>(first.events), "count"},
        {"sim.max_queue_depth", static_cast<double>(first.max_queue_depth), "count"},
        {"sim.host_ns_per_event", untraced * 1e9 / static_cast<double>(first.events),
         "ns"},
        {"sim.queue_op_ns.d48", probes.queue_op_ns_d48, "ns"},
        {"sim.queue_op_ns.d97", probes.queue_op_ns_d97, "ns"},
        {"sim.queue_op_ns.d1024", probes.queue_op_ns_d1024, "ns"},
        {"sim.server_acquire_ns", probes.server_acquire_ns, "ns"},
        {"noc.reserve_path_ns", probes.reserve_path_ns, "ns"},
        {"noc.setup_s", median(chip_passes) * setup_scale, "s"},
        {"noc.packets", static_cast<double>(first.packets), "count"},
        {"noc.link_util.max", first.link_util_max, "ratio"},
        {"scc.mpb_port_util.max", first.mpb_port_util_max, "ratio"},
        {"scc.mc_port_util.max", first.mc_port_util_max, "ratio"},
        {"scc.port_served", static_cast<double>(first.port_served), "count"},
        {"check.overhead_ratio", probes.check_overhead_ratio, "ratio"},
        {"check.line_ns", probes.check_line_ns, "ns"},
        {"check.violations", static_cast<double>(first.violations), "count"},
        {"trace.overhead_ratio", probes.trace_overhead_ratio, "ratio"},
        {"trace.events", probes.trace_events, "count"},
        {"fault.injections", static_cast<double>(first.injections), "count"},
        {"fault.survivor_correct_ratio",
         first.survivors == 0 ? 0.0
                              : static_cast<double>(first.survivors_correct) /
                                    static_cast<double>(first.survivors),
         "ratio"},
        {"rma.get_us.d1", probes.rma_get_us_d1, "us"},
        {"rma.get_us.d9", probes.rma_get_us_d9, "us"},
        {"rma.put_us.d1", probes.rma_put_us_d1, "us"},
        {"rma.put_us.d9", probes.rma_put_us_d9, "us"},
    };
    for (const std::string& series : coll_series()) {
      metrics.push_back({"coll." + series + ".sim_latency_us", series_us(series), "us"});
    }
    metrics.insert(
        metrics.end(),
        {
            {"coll.adaptive_dispatch_ratio", probes.adaptive_dispatch_ratio, "ratio"},
            {"model.residual_pct", anchor.model_residual_pct, "%"},
            {"svc.queue_wait_ns.p90",
             static_cast<double>(
                 ledger_percentile(first.ledger, LedgerField::kQueueWait, 90.0)),
             "ns"},
            {"svc.service_ns.p90",
             static_cast<double>(
                 ledger_percentile(first.ledger, LedgerField::kService, 90.0)),
             "ns"},
            {"svc.reject_ratio",
             open ? static_cast<double>(first.svc_rejected) /
                        static_cast<double>(first.svc_requests)
                  : 0.0,
             "ratio"},
            {"svc.max_queue_depth", static_cast<double>(first.svc_max_queue_depth),
             "count"},
            {"svc.makespan_ns",
             static_cast<double>(open ? first.makespan_ns : first.busy_ns), "ns"},
            {"bench.span_overhead_ratio", median(traced_run_s) / median(round_run_s),
             "ratio"},
            {"bench.run_wall_s", run_wall_s, "s"},
        });
    if (!args.trace_out.empty()) {
      // The run's settings travel as the args of one span over the whole run.
      spans.trace().add_span(
          {"perfbench " + workload.name, "perfbench", 0, 0, spans.now(),
           "\"seed\":" + std::to_string(args.seed) + ",\"hardware_concurrency\":" +
               std::to_string(std::thread::hardware_concurrency()) +
               ",\"build_type\":\"" OCB_PERFBENCH_BUILD_TYPE "\",\"ocb_sim_stats\":\"" +
               kSimStats + "\""});
      if (!spans.trace().write_file(args.trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
    }
  }

  const double fail_ratio =
      static_cast<double>(counts.failed) / static_cast<double>(counts.attempted);
  std::printf("# round wall s:");
  for (double s : round_run_s) std::printf(" %.4f", s);
  std::printf("\n# run_wall_s=%.4f reference sample median=%.4f ms, scaled to "
              "%.4f ms\n",
              run_wall_s, median(ref_s) * 1e3, kReferenceSeconds * 1e3);
  std::printf("# rounds=%zu attempted=%llu failed=%llu fail_ratio=%.6g "
              "deterministic=%s\n",
              rounds.size(), static_cast<unsigned long long>(counts.attempted),
              static_cast<unsigned long long>(counts.failed), fail_ratio,
              deterministic ? "yes" : "no");
  for (const LadderRung& r : first.ladder) {
    std::printf("# rung %5.1f/ms p90_ns=%llu rejected=%llu backlog_stable=%d\n",
                r.rate_per_ms, static_cast<unsigned long long>(r.p90_ns),
                static_cast<unsigned long long>(r.rejected), r.backlog_stable ? 1 : 0);
  }
  for (const Metric& m : metrics) {
    std::printf("# %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", render_json(counts.failed == 0 && deterministic,
                                  counts.attempted, counts.failed, metrics)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  require_serial_environment();
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ocb_perfbench: %s\n", e.what());
    return 1;
  }
}
