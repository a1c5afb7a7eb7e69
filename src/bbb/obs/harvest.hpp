#pragma once
/// \file harvest.hpp
/// The one-way bridge from the core's passive counters to the obs layer.
/// The streaming core knows nothing about obs — it keeps plain integers
/// in code that is already cold (side-table touches, lookahead refills,
/// explode fallbacks) or already counted (probes). After the work, a
/// driver *harvests* those integers into a `CoreCounters` struct and
/// folds it into a MetricsRegistry under the canonical dotted names.
/// Post-hoc harvesting is what makes `--obs=counters` free on the per-ball
/// path: reading nine integers once per replicate.
///
/// Canonical name catalog for the harvested counters (the full catalog,
/// including dyn/sim/law metrics, lives in docs/OBSERVABILITY.md):
///   core.probe.count                 random bin choices (allocation time)
///   core.ball.placed                 total weight ever placed
///   core.rule.reallocations          post-placement moves (cuckoo kicks)
///   core.rule.rounds                 synchronous rounds / balancing passes
///   core.lookahead.refills           probe-lookahead buffer refills
///   core.lookahead.discarded_words   read-ahead words thrown away
///   state.compact.promotions         8-bit lane -> overflow side-table
///   state.compact.demotions          overflow side-table -> 8-bit lane
///   core.weighted.explode_fallbacks  weighted chains placed unit-by-unit
///   core.batch.batches               kernel-path place_batch calls
///   core.batch.waves                 batch-kernel waves processed
///   core.batch.fast_balls            balls committed by the vector path
///   core.batch.fallback_balls        balls re-run on the exact scalar path
///   shard.sync_rounds                synchronized rounds, summed over shards
///   shard.probe.cross_shard          probes routed to another shard's bins
///   shard.ball.deferred              balls replayed in the cleanup sub-phase
///   shard.message.count              counted messages (req+rep+commit)
///   shard.ring.highwater             peak cross-shard request-bucket length
///   shard.phase.<phase>.ns           worker wall time per round phase
///                                    (draw, serve, decide, apply, cleanup)
///   shard.barrier.wait_ns            worker time waiting in the barrier

#include <cstdint>

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/obs/metrics.hpp"
#include "bbb/shard/counters.hpp"

namespace bbb::obs {

/// Everything the core can account for one run, as plain integers —
/// cheap to store per replicate (sim keeps one per ReplicateRecord).
struct CoreCounters {
  std::uint64_t probes = 0;
  std::uint64_t balls_placed = 0;
  std::uint64_t reallocations = 0;
  std::uint64_t rounds = 0;
  std::uint64_t lookahead_refills = 0;
  std::uint64_t lookahead_discarded_words = 0;
  std::uint64_t compact_promotions = 0;
  std::uint64_t compact_demotions = 0;
  std::uint64_t explode_fallbacks = 0;
  std::uint64_t batch_batches = 0;
  std::uint64_t batch_waves = 0;
  std::uint64_t batch_fast_balls = 0;
  std::uint64_t batch_fallback_balls = 0;

  /// Element-wise sum (fold across replicates).
  void accumulate(const CoreCounters& other) noexcept;

  friend bool operator==(const CoreCounters&, const CoreCounters&) = default;
};

/// Read every counter a StreamingAllocator exposes: the rule's probe and
/// placement counts, its lookahead (when it has one), the state's compact
/// side-table traffic, and the allocator's explode fallbacks. O(1).
[[nodiscard]] CoreCounters harvest(const core::StreamingAllocator& alloc);

/// Harvest from a bare rule + state pair (the batch adapter's shape).
/// `state` may be null when only rule-side counters exist.
[[nodiscard]] CoreCounters harvest(const core::PlacementRule& rule,
                                   const core::BinState* state);

/// The subset an AllocationResult carries (the wide batch path runs whole
/// protocols whose rule internals are not exposed): probes, placed weight,
/// reallocations, rounds.
[[nodiscard]] CoreCounters harvest(const core::AllocationResult& result);

/// Fold into `registry` under the canonical names above. Zero-valued
/// counters with no possible source are still registered when their
/// machinery was in play (probes/placed always; the rest only when
/// nonzero) so summaries stay compact.
void fold_into(MetricsRegistry& registry, const CoreCounters& counters);

/// Fold a sharded run's aggregated counters under the shard.* names above.
/// Registered only when the shard engine actually ran (messages or rounds
/// nonzero), so unsharded summaries stay free of shard rows; highwater is
/// a gauge (max across replicates), the rest are summed counters.
void fold_into(MetricsRegistry& registry, const shard::ShardCounters& counters);

/// Fold a sharded run's phase timings (summed over workers) as counters
/// under shard.phase.<phase>.ns and shard.barrier.wait_ns. Registered only
/// when the multi-shard engine ran (any timing nonzero).
void fold_into(MetricsRegistry& registry, const shard::ShardPhaseTimes& times);

}  // namespace bbb::obs
