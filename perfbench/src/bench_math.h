// The benchmark's own arithmetic: exact percentiles over a request ledger,
// geometric means, the SLO-rate pick from an offered-rate ladder, and the
// error against the paper's silicon measurements. Header-only and free of
// simulator types (percentiles come from ocb::SampleStats) so
// tests/bench_math_test.cpp can check it against ocb_common alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/stats.h"
#include "harness/paper_data.h"

namespace perfbench {

/// Latency of a request that was rejected: beyond any limit.
inline constexpr std::uint64_t kRejectedNs =
    std::numeric_limits<std::uint64_t>::max();

/// One request of a ledger. A rejected request carries kRejectedNs in every
/// field, so it sorts after every completed request.
struct LedgerEntry {
  std::uint64_t latency_ns = 0;     ///< arrival -> completion
  std::uint64_t queue_wait_ns = 0;  ///< arrival -> dispatch
  std::uint64_t service_ns = 0;     ///< dispatch -> completion
  bool rejected = false;
};

enum class LedgerField { kLatency, kQueueWait, kService };

/// Exact nearest-rank percentile (p in [0, 100]) of one field over every
/// request of the ledger: always one of the samples, unlike a histogram
/// bucket edge. Rejected requests count as +infinity, so a p90 whose rank
/// lands on a rejection reads as kRejectedNs (beyond any limit). Throws
/// ocb::PreconditionError on an empty ledger or a p outside [0, 100].
inline std::uint64_t ledger_percentile(const std::vector<LedgerEntry>& ledger,
                                       LedgerField field, double p) {
  ocb::SampleStats stats;
  for (const LedgerEntry& e : ledger) {
    const std::uint64_t ns = field == LedgerField::kLatency     ? e.latency_ns
                             : field == LedgerField::kQueueWait ? e.queue_wait_ns
                                                                : e.service_ns;
    stats.add(e.rejected ? std::numeric_limits<double>::infinity()
                         : static_cast<double>(ns));
  }
  const double value = stats.percentile(p);
  return std::isinf(value) ? kRejectedNs : static_cast<std::uint64_t>(value);
}

/// Geometric mean of strictly positive values. Throws on an empty input or
/// a non-positive value (a zero latency or throughput is a broken run).
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean of no values");
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) throw std::invalid_argument("geomean of a non-positive value");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Nearest-rank median (the lower middle value for even sizes). Throws
/// ocb::PreconditionError on an empty input.
inline double median(const std::vector<double>& values) {
  ocb::SampleStats stats;
  for (double v : values) stats.add(v);
  return stats.median();
}

/// One rung of an offered-rate ladder.
struct LadderRung {
  double rate_per_ms = 0.0;   ///< offered requests per simulated ms
  std::uint64_t p90_ns = 0;   ///< ledger p90 of arrival -> completion
  std::uint64_t rejected = 0;
  /// The backlog did not grow: the run drained within one SLO of the last
  /// arrival (see backlog_stable()).
  bool backlog_stable = true;
};

/// A run's backlog is stable when the service finishes within one latency
/// limit of the last arrival; a queue that grows over the run leaves a tail
/// longer than that.
inline bool backlog_stable(std::uint64_t last_arrival_ns,
                           std::uint64_t last_completion_ns,
                           std::uint64_t slo_ns) {
  return last_completion_ns <= last_arrival_ns + slo_ns;
}

/// The highest offered rate of the contiguous passing prefix of the ladder
/// (rungs sorted by rate): p90 within `slo_ns`, nothing rejected, backlog
/// stable. A pass above a failing rung is a fluke of that rung's arrivals
/// and is not credited. Returns 0 when even the lowest rung fails.
inline double pick_slo_rate(std::vector<LadderRung> ladder, std::uint64_t slo_ns) {
  std::sort(ladder.begin(), ladder.end(),
            [](const LadderRung& a, const LadderRung& b) {
              return a.rate_per_ms < b.rate_per_ms;
            });
  double best = 0.0;
  for (const LadderRung& r : ladder) {
    if (r.p90_ns > slo_ns || r.rejected > 0 || !r.backlog_stable) break;
    best = r.rate_per_ms;
  }
  return best;
}

/// Simulated values at the paper's silicon reference points (all on the
/// 48-core SCC, root 0).
struct PaperPoints {
  double ocbcast_k7_1line_us = 0.0;
  double binomial_1line_us = 0.0;
  double ocbcast_k2_144_us = 0.0;  ///< the "96..192-line" k=2 comparison point
  double ocbcast_k7_144_us = 0.0;
  double peak_ratio = 0.0;  ///< OC-Bcast k=7 / scatter-allgather throughput
};

/// Mean relative error (%) against every numeric Fig. 8 reference of
/// harness/paper_data.h: the two 1-line latencies, the k=7-vs-binomial and
/// k=7-vs-k=2 gains, and the ~3x peak-throughput ratio.
inline double paper_error_pct(const PaperPoints& p) {
  namespace paper = ocb::harness::paper;
  const double gain_vs_binomial =
      (1.0 - p.ocbcast_k7_1line_us / p.binomial_1line_us) * 100.0;
  const double gain_vs_k2 =
      (1.0 - p.ocbcast_k7_144_us / p.ocbcast_k2_144_us) * 100.0;
  const double errors[] = {
      std::abs(p.ocbcast_k7_1line_us - paper::kFig8aOcK7LatencyUs) /
          paper::kFig8aOcK7LatencyUs,
      std::abs(p.binomial_1line_us - paper::kFig8aBinomialLatencyUs) /
          paper::kFig8aBinomialLatencyUs,
      std::abs(gain_vs_binomial - paper::kMinLatencyImprovementPct) /
          paper::kMinLatencyImprovementPct,
      std::abs(gain_vs_k2 - paper::kK7VsK2LargeMsgImprovementPct) /
          paper::kK7VsK2LargeMsgImprovementPct,
      std::abs(p.peak_ratio - paper::kPeakThroughputRatio) /
          paper::kPeakThroughputRatio,
  };
  double sum = 0.0;
  for (double e : errors) sum += e;
  return sum / static_cast<double>(std::size(errors)) * 100.0;
}

}  // namespace perfbench
