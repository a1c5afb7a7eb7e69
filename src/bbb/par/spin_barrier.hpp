#pragma once
/// \file spin_barrier.hpp
/// A reusable (cyclic) barrier for the shard workers' round phases.
///
/// std::barrier would do, but its completion-step machinery and
/// implementation-defined blocking are more than the shard engine wants:
/// the workers synchronize 4 times per round and otherwise never sleep,
/// so the right primitive is a generation-counted spin barrier that
/// *yields* while waiting. Yielding matters more than raw spin speed
/// here: the engine must degrade gracefully when there are more shards
/// than hardware threads (CI machines, the single-core container this
/// repo is grown in) — a hard spin would livelock the very thread it is
/// waiting for, a yield hands it the core.
///
/// Memory ordering: the generation bump is a release store and waiters
/// re-read it with acquire loads, so everything written before
/// arrive_and_wait() on any thread is visible after it on every thread —
/// the property the shard engine's round exchange relies on: the arrays
/// one worker filled in a phase are complete and visible to their readers
/// in the next phase, with no other synchronization.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>

namespace bbb::par {

class SpinBarrier {
 public:
  /// \throws std::invalid_argument if parties == 0.
  explicit SpinBarrier(std::uint32_t parties) : parties_(parties) {
    if (parties == 0) {
      throw std::invalid_argument("SpinBarrier: parties must be positive");
    }
  }

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Block (yielding) until all `parties` threads have arrived, then
  /// release them together. Reusable immediately: a thread may re-arrive
  /// for the next phase while stragglers of this one are still waking —
  /// the arrival counter was reset before their generation ticked.
  void arrive_and_wait() noexcept {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      return;
    }
    while (generation_.load(std::memory_order_acquire) == gen) {
      std::this_thread::yield();
    }
  }

  /// Abort-aware arrival for structured tear-down: behaves like
  /// arrive_and_wait(), but a waiter also returns (false) as soon as
  /// `abort` reads true. An aborted waiter leaves its arrival counted, so
  /// the barrier is NOT reusable after any false return — the abort flag
  /// must mean "every party is on its way out" (the shard engine sets it
  /// exactly once, when a worker dies, and all workers then unwind).
  [[nodiscard]] bool arrive_and_wait(const std::atomic<bool>& abort) noexcept {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      return !abort.load(std::memory_order_relaxed);
    }
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (abort.load(std::memory_order_relaxed)) return false;
      std::this_thread::yield();
    }
    return !abort.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t parties() const noexcept { return parties_; }

  /// Completed phases — a monotone clock the stress tests assert on.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  const std::uint32_t parties_;
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  alignas(64) std::atomic<std::uint64_t> generation_{0};
};

}  // namespace bbb::par
