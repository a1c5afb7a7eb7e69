#pragma once
/// \file counters.hpp
/// Passive per-shard counters, in the repo's observability discipline
/// (docs/OBSERVABILITY.md): the engine's hot path bumps plain integers —
/// each worker writes only its own struct, so there is nothing atomic
/// here — and the obs layer harvests them *after* the run
/// (obs::fold_into in obs/harvest.hpp maps them to shard.* metric names).
/// This header stays dependency-free so obs/ can include it without
/// pulling the engine in.

#include <cstdint>

namespace bbb::shard {

/// One worker's tallies; aggregate across workers with operator+=
/// (ring_highwater aggregates by max — it is an occupancy, not a count).
/// Every field is a pure function of (seed, shards, round_balls), so two
/// runs compare exactly with operator==.
struct ShardCounters {
  std::uint64_t rounds = 0;             ///< synchronized rounds participated in
  std::uint64_t balls = 0;              ///< balls this shard decided
  std::uint64_t probes = 0;             ///< probe draws (d per ball)
  std::uint64_t cross_shard_probes = 0; ///< probes on another shard's bins
  std::uint64_t deferred_balls = 0;     ///< balls sent to the cleanup sub-phase
  std::uint64_t messages = 0;           ///< counted messages (req+rep+commit); the
                                        ///< exchange itself is plain arrays
  std::uint64_t ring_highwater = 0;     ///< peak length of one cross-shard
                                        ///< (sender, owner) request bucket

  ShardCounters& operator+=(const ShardCounters& o) noexcept {
    rounds += o.rounds;
    balls += o.balls;
    probes += o.probes;
    cross_shard_probes += o.cross_shard_probes;
    deferred_balls += o.deferred_balls;
    messages += o.messages;
    if (o.ring_highwater > ring_highwater) ring_highwater = o.ring_highwater;
    return *this;
  }

  friend bool operator==(const ShardCounters&, const ShardCounters&) = default;
};

/// One worker's wall time per round phase, in nanoseconds, summed over
/// rounds (and over workers with operator+=). Kept apart from
/// ShardCounters because timings differ from run to run while the
/// counters are exact.
struct ShardPhaseTimes {
  std::uint64_t draw_ns = 0;
  std::uint64_t serve_ns = 0;
  std::uint64_t decide_ns = 0;
  std::uint64_t apply_ns = 0;
  std::uint64_t cleanup_ns = 0;       ///< worker 0 only
  std::uint64_t barrier_wait_ns = 0;  ///< time spent waiting in the barrier

  ShardPhaseTimes& operator+=(const ShardPhaseTimes& o) noexcept {
    draw_ns += o.draw_ns;
    serve_ns += o.serve_ns;
    decide_ns += o.decide_ns;
    apply_ns += o.apply_ns;
    cleanup_ns += o.cleanup_ns;
    barrier_wait_ns += o.barrier_wait_ns;
    return *this;
  }

  friend bool operator==(const ShardPhaseTimes&, const ShardPhaseTimes&) = default;
};

}  // namespace bbb::shard
