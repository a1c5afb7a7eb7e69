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
struct ShardCounters {
  std::uint64_t rounds = 0;             ///< synchronized rounds participated in
  std::uint64_t balls = 0;              ///< balls this shard decided
  std::uint64_t probes = 0;             ///< probe draws (d per ball)
  std::uint64_t cross_shard_probes = 0; ///< probes routed to another shard
  std::uint64_t deferred_balls = 0;     ///< balls sent to the cleanup sub-phase
  std::uint64_t messages = 0;           ///< ring messages pushed (req+rep+commit)
  std::uint64_t ring_highwater = 0;     ///< max outbound-ring occupancy sampled
                                        ///< at round boundaries

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

}  // namespace bbb::shard
