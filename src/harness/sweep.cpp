#include "harness/sweep.h"

namespace ocb::harness {

Series sweep_message_sizes(const BcastRunSpec& base, const std::string& label,
                           const std::vector<std::size_t>& sizes_lines) {
  Series series;
  series.label = label;
  for (std::size_t lines : sizes_lines) {
    BcastRunSpec spec = base;
    spec.message_bytes = lines * kCacheLineBytes;
    spec.iterations = default_iterations(lines);
    const BcastRunResult r = run_broadcast(spec);
    series.points.push_back(SeriesPoint{lines, r.latency_us.mean(),
                                        r.throughput_mbps, r.content_ok});
  }
  return series;
}

std::vector<std::size_t> small_message_sizes() {
  std::vector<std::size_t> sizes{1, 4, 8, 16};
  for (std::size_t s = 12; s <= 192; s += 12) sizes.push_back(s);
  sizes.push_back(96);
  sizes.push_back(97);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

std::vector<std::size_t> large_message_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 1; s <= 32768; s *= 2) sizes.push_back(s);
  sizes.push_back(96);
  sizes.push_back(97);
  sizes.push_back(192);
  sizes.push_back(3072);  // ~P * M_oc, Table 2's modeled message size
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

int default_iterations(std::size_t lines) {
  if (lines <= 64) return 8;
  if (lines <= 512) return 5;
  if (lines <= 4096) return 3;
  return 2;
}

std::vector<std::pair<std::string, coll::Params>> paper_algorithm_lineup() {
  std::vector<std::pair<std::string, coll::Params>> lineup;
  for (int k : {2, 7, 47}) {
    coll::Params p;
    p.k = k;
    lineup.emplace_back("ocbcast", p);
  }
  lineup.emplace_back("binomial", coll::Params{});
  lineup.emplace_back("scatter-allgather", coll::Params{});
  return lineup;
}

std::string spec_label(const std::string& name, const coll::Params& params) {
  if (name == "ocbcast") {
    std::string label = "k=" + std::to_string(params.k);
    if (!params.double_buffering) label += " (1buf)";
    if (params.leaf_direct_to_memory) label += " (leaf-direct)";
    if (params.sequential_notification) label += " (seq-notify)";
    return label;
  }
  if (name == "ft-ocbcast") {
    std::string label = "ft k=" + std::to_string(params.k);
    if (!params.double_buffering) label += " (1buf)";
    return label;
  }
  if (name == "scatter-allgather") return "s-ag";
  if (name == "onesided-sag") return "os-sag";
  return name;
}

}  // namespace ocb::harness
