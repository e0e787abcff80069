// A fixed amount of host work that no simulator code takes part in, timed
// between the benchmark's operations. The host this benchmark runs on may be
// shared: its speed then drifts by tens of percent over minutes as other
// tenants load the machine, and a single-threaded simulation slows with it.
// Dividing an operation's time by the reference time measured next to it
// cancels that drift; a change to the simulator moves the operation's time
// and not the reference's.
//
// The simulator's host time is part core-bound (heap, coroutine and
// arbitration code in the L1 and L2 caches) and part memory-bound (tens of
// MB of chip state). The reference times one kernel of each kind and takes
// their geometric mean. On a shared 4-vCPU Xeon VM whose speed drifted by up
// to 40% between runs, a workload's time over this mean varied 3 to 13 times
// less from run to run than its time did, and less than its time over
// either kernel alone.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <functional>
#include <queue>
#include <vector>

namespace perfbench {

/// Host seconds are reported at the speed at which one reference sample
/// takes this long (about an unloaded 4-vCPU Xeon Sapphire Rapids VM), so
/// they read close to wall seconds there.
inline constexpr double kReferenceSeconds = 0.004;

class HostSpeedReference {
 public:
  /// Resident bytes the reference adds to the process.
  static constexpr std::size_t kBufferBytes = std::size_t{32} << 20;

  HostSpeedReference() : chase_(kChaseSlots) {
    // Sattolo's shuffle: one random cycle through the whole buffer, so every
    // load depends on the previous one and lands on an unpredictable line.
    for (std::uint32_t i = 0; i < kChaseSlots; ++i) chase_[i] = i;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) {
      x = next(x);
      std::swap(chase_[i], chase_[static_cast<std::uint32_t>((x >> 33) % i)]);
    }
  }

  /// Host seconds of one reference sample: the geometric mean of the
  /// core-bound and the memory-bound kernel.
  double sample() { return std::sqrt(core_kernel() * memory_kernel()); }

 private:
  static constexpr std::uint32_t kChaseSlots = kBufferBytes / sizeof(std::uint32_t);
  static constexpr std::size_t kHeapSteps = 100000;
  static constexpr std::size_t kHeapDepth = 64;
  static constexpr std::size_t kChaseSteps = 25000;

  static std::uint64_t next(std::uint64_t x) {
    return x * 6364136223846793005ull + 1442695040888963407ull;
  }

  static double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  /// An event-queue-like binary heap that stays in the L1 cache.
  double core_kernel() {
    const auto t0 = std::chrono::steady_clock::now();
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>>
        heap;
    std::uint64_t x = 1;
    for (std::size_t i = 0; i < kHeapSteps; ++i) {
      x = next(x);
      heap.push(x >> 20);
      if (heap.size() > kHeapDepth) {
        sink_ = sink_ + heap.top();
        heap.pop();
      }
    }
    return seconds_since(t0);
  }

  /// Dependent loads through a buffer far larger than the core's caches.
  double memory_kernel() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t p = static_cast<std::uint32_t>(sink_ % kChaseSlots);
    for (std::size_t i = 0; i < kChaseSteps; ++i) p = chase_[p];
    sink_ = sink_ + p;
    return seconds_since(t0);
  }

  std::vector<std::uint32_t> chase_;
  /// Folded results: volatile, so the work cannot be optimised away.
  volatile std::uint64_t sink_ = 0;
};

}  // namespace perfbench
