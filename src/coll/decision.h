// Decision tables: the online half of the design-space autotuner.
//
// A DecisionTable maps a broadcast call's observable context — message size
// in cache lines, party count, and the caller's observed fault rate — to a
// concrete algorithm Choice (registry name + the tuning knobs the offline
// explorer found best there). Tables are ordered band lists with
// first-match-wins semantics, serialize to versioned JSON
// ("ocb-tune-decision-v1"), and ship with a baked-in default derived by
// tune::Explorer from the committed sweep (results/autotune_pareto.json,
// DESIGN.md §13). coll::AdaptiveBcast consults one per run() call.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "coll/registry.h"
#include "noc/topology.h"

namespace ocb::coll {

/// A concrete algorithm choice: registry name plus the tuning knobs a
/// decision table pins. Everything else (parties, mpb_base_line, ...)
/// comes from the caller's Params via apply().
struct Choice {
  std::string algorithm = "ocbcast";
  int k = 7;
  std::size_t chunk_lines = 96;
  bool double_buffering = true;

  /// The caller's Params with this choice's knobs substituted in.
  Params apply(Params base) const;

  /// Stable identity string ("ocbcast/k7/c96/db1") — delegate cache key.
  std::string key() const;
};

/// One band of the decision space. A rule matches a query when
///   lines <= max_lines && parties <= max_parties &&
///   fault_rate <= max_fault_rate;
/// rules are evaluated in order, first match wins. Zero-fault size bands
/// come first (max_fault_rate == 0 never matches a faulty query), the
/// fault-tolerant bands after them, and the final rule must be a catch-all
/// so every query resolves. A table tuned at P parties answers larger
/// party counts as it would at P: lookup() clamps the query's parties to
/// the catch-all's max_parties.
struct DecisionRule {
  std::size_t max_lines = static_cast<std::size_t>(-1);
  int max_parties = noc::Topology::scc().num_cores();
  double max_fault_rate = 0.0;
  Choice choice;
};

class DecisionTable {
 public:
  /// Requires a non-empty rule list whose last rule is a catch-all
  /// (max_lines == SIZE_MAX, max_parties >= every rule's max_parties,
  /// max_fault_rate >= 1).
  explicit DecisionTable(std::vector<DecisionRule> rules);

  const std::vector<DecisionRule>& rules() const { return rules_; }

  /// First matching rule's choice for `parties` clamped to the catch-all's
  /// max_parties; total by the catch-all invariant.
  const Choice& lookup(std::size_t lines, int parties,
                       double fault_rate) const;

  /// Versioned JSON record ("ocb-tune-decision-v1"); from_json parses
  /// exactly this format back (round-trip identity is tested).
  std::string to_json() const;
  static DecisionTable from_json(const std::string& json);

  /// The shipped default, derived offline by tune::Explorer from the
  /// committed design-space sweep: OC-Bcast k=7 (96-line double-buffered
  /// chunks) wins every zero-fault band of the fig8 grids, FT-OC-Bcast
  /// k=7 takes over as soon as the caller reports a nonzero fault rate.
  static const DecisionTable& baked_in();

 private:
  std::vector<DecisionRule> rules_;
};

}  // namespace ocb::coll
