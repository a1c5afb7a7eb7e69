#pragma once
/// \file experiment.hpp
/// Experiment configuration and per-replicate records — the vocabulary
/// shared by the Monte-Carlo runner, the sweep helpers, and every bench.

#include <cstdint>
#include <string>

#include "bbb/core/bin_state.hpp"
#include "bbb/obs/harvest.hpp"
#include "bbb/obs/obs.hpp"
#include "bbb/shard/counters.hpp"

namespace bbb::sim {

/// Which execution tier evaluates a replicate.
enum class Tier : std::uint8_t {
  /// Simulate every ball through the streaming core (wide or compact
  /// layout per ExperimentConfig::layout) — the exact tiers of PRs 1-5.
  kExact,
  /// Sample the occupancy law directly (law::sample_one_choice_profile):
  /// exact in distribution, O(levels + sqrt(m)) per replicate. Only the
  /// one-choice spec has a sampled law; other specs throw.
  kLaw,
};

/// Round-trips with parse_tier; "exact" / "law".
[[nodiscard]] std::string to_string(Tier tier);

/// \throws std::invalid_argument for anything but "exact" / "law".
[[nodiscard]] Tier parse_tier(const std::string& text);

/// One experiment: a protocol at a fixed (m, n), repeated `replicates`
/// times with independent derived seeds.
struct ExperimentConfig {
  std::string protocol_spec = "adaptive";  ///< registry spec, see registry.hpp
  std::uint64_t m = 0;                     ///< balls
  std::uint32_t n = 1;                     ///< bins
  std::uint32_t replicates = 20;           ///< independent runs
  std::uint64_t seed = 42;                 ///< master seed
  /// BinState storage layout. kWide is the historical batch path
  /// (Protocol::run, bit-for-bit the classic results). kCompact is the
  /// giant-scale tier: replicates stream place_one over an 8-bit-lane
  /// state and read the incremental metrics — same allocations for every
  /// rule whose batch form is the place loop (the one exception, batched[
  /// capacity], runs its streaming capacity-bounded form), at ~1 byte per
  /// bin so n = 2^30 fits in ~1 GiB.
  core::StateLayout layout = core::StateLayout::kWide;
  /// Execution tier. Tier::kLaw replaces the per-ball simulation with the
  /// law tier's exact profile sampler (same SeedSequence-derived engines,
  /// different consumption — records pin to their own golden values).
  /// Probe/reallocation/round counters are not defined by a sampled
  /// profile; the law tier reports probes = m (one probe per ball, the
  /// one-choice cost identity) and zeros elsewhere.
  Tier tier = Tier::kExact;
  /// Keep the raw per-replicate rows in RunSummary::records. Summary
  /// statistics are always folded; switch this off in large sweeps so a
  /// grid of thousands of configs does not retain every raw row in memory.
  bool keep_records = true;
  /// Observability settings (level, trace sink, heartbeat cadence). Off by
  /// default: replicates then run the uninstrumented path of PRs 1-6 and
  /// RunSummary::obs stays empty. Never affects placements (see obs.hpp).
  obs::ObsConfig obs;

  /// Human-readable "spec m=... n=... reps=..." line for logs.
  [[nodiscard]] std::string describe() const;
};

/// The per-replicate scalar outputs every analysis consumes.
struct ReplicateRecord {
  double probes = 0.0;         ///< allocation time (bin samples / messages)
  double max_load = 0.0;
  double min_load = 0.0;
  double gap = 0.0;            ///< max - min
  double psi = 0.0;            ///< quadratic potential at t = m
  double log_phi = 0.0;        ///< ln of exponential potential at t = m
  double reallocations = 0.0;  ///< post-placement moves (CRS, cuckoo)
  double rounds = 0.0;         ///< synchronous rounds (parallel protocols)
  bool completed = true;
  /// Exact core counters (probes, lookahead, compact side-table traffic)
  /// harvested after the replicate — populated only when the experiment's
  /// obs level is counters or full; all-zero otherwise.
  obs::CoreCounters counters;
  /// Sharded-engine counters (cross-shard probe traffic, deferrals,
  /// request-bucket high-water), aggregated over the replicate's shards —
  /// populated under the same condition, and only for `shards[t]:` specs.
  shard::ShardCounters shard_counters;
  /// Sharded-engine wall time per round phase and barrier wait, summed
  /// over workers; populated under the same condition. Timings, so never
  /// part of a record comparison.
  shard::ShardPhaseTimes shard_phases;
  /// Replicate wall time; populated under the same condition.
  std::uint64_t wall_ns = 0;
};

}  // namespace bbb::sim
