// Message Passing Buffer storage.
//
// One MpbStorage models a core's 8 KB half of its tile's 16 KB MPB as 256
// cache lines of real bytes: every simulated transfer moves actual data, so
// collectives are verified end-to-end for content as well as timing.
//
// The SCC guarantees read/write atomicity at cache-line granularity (paper
// §5.1) — the storage API only exposes whole-line loads/stores, so torn
// reads are unrepresentable by construction.
//
// Each line carries a lazily-allocated sim::Trigger fired on every store;
// flag-polling coroutines (rma::wait_local_flag) park on it instead of
// burning simulation events per poll iteration.
//
// The tile's shared MPB *port* (the contended resource of Figure 4) is not
// here: it lives in scc::SccChip, one ArbitratedServer per tile, because it
// is shared by the tile's two cores.
#pragma once

#include <array>
#include <memory>

#include "common/types.h"
#include "sim/condition.h"

namespace ocb::mem {

class MpbStorage {
 public:
  explicit MpbStorage(sim::Engine& engine) : engine_(&engine) {}

  MpbStorage(const MpbStorage&) = delete;
  MpbStorage& operator=(const MpbStorage&) = delete;

  /// Atomically reads one cache line.
  const CacheLine& load(std::size_t line) const;

  /// Atomically writes one cache line and wakes any coroutine parked on it.
  void store(std::size_t line, const CacheLine& value);

  /// Trigger fired on every store to `line` (created on first use).
  sim::Trigger& line_trigger(std::size_t line);

  /// True if a coroutine is currently parked on `line`'s trigger. Cheap
  /// peek (no trigger creation).
  bool line_has_waiters(std::size_t line) const {
    return triggers_[line] != nullptr && triggers_[line]->waiter_count() > 0;
  }

  /// Host-side zero-cost access for test setup/verification; does not fire
  /// triggers and takes no simulated time.
  CacheLine& host_line(std::size_t line);

  /// Host-side zero-cost scrub of [first, first+count): the slot allocator
  /// (mem/mpb_slots.h) clears a lease's lines before handing them to a new
  /// collective, so a stale flag value from the previous occupant can never
  /// satisfy the newcomer's waits. Does not fire triggers — callers must
  /// guarantee no coroutine is parked on the range (the service releases a
  /// lease only after every participant returned).
  void host_clear_lines(std::size_t first, std::size_t count);

  static constexpr std::size_t capacity_lines() { return kMpbCacheLines; }

 private:
  void require_line(std::size_t line) const;

  sim::Engine* engine_;
  std::array<CacheLine, kMpbCacheLines> lines_{};
  std::array<std::unique_ptr<sim::Trigger>, kMpbCacheLines> triggers_{};
};

}  // namespace ocb::mem
