#pragma once
/// \file obs.hpp
/// The observability vocabulary every layer shares: the three-position
/// instrumentation level and the per-run `ObsConfig` that sim/dyn/law
/// configs embed.
///
/// The contract that keeps this layer free to carry everywhere:
///
///   * `kOff` (the default) costs nothing on the hot path. The streaming
///     core is never asked to stream events anywhere — the few counters it
///     keeps (probes, lookahead refills, compact promotions) are passive
///     integers it already maintains in cold code, and the drivers simply
///     do not harvest them. tests/obs/overhead_guard_test.cpp pins the
///     greedy[2] streaming case within noise of the raw loop, and
///     placements are byte-identical because observation never draws from
///     an rng::Engine.
///   * `kCounters` harvests those passive counters after the work is done
///     (per replicate / per case) and folds them into a MetricsRegistry
///     snapshot — still nothing on the per-ball path.
///   * `kFull` additionally times individual events where a latency
///     distribution exists (the dyn engine's place/remove) and emits
///     periodic heartbeat snapshots; the only new per-event cost is two
///     steady_clock reads behind one predictable branch, and it is
///     confined to layers whose events are microseconds, not nanoseconds.
///
/// Placements are bit-for-bit identical at every level: observation reads
/// clocks and counters, never the randomness stream (enforced for the sim
/// tier by tests/integration/path_matrix_test.cpp, every registry spec on
/// both layouts, and for the dyn and law tiers by
/// tests/obs/obs_integration_test.cpp).

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace bbb::obs {

class TraceSink;

/// How much instrumentation a run carries. See the file comment for the
/// cost contract of each level.
enum class ObsLevel : std::uint8_t {
  kOff,       ///< no harvesting, no events — the hot path of PRs 1-6
  kCounters,  ///< harvest passive counters into a snapshot after the work
  kFull,      ///< counters + event latency histograms + heartbeats
};

/// Canonical spelling ("off" / "counters" / "full") for CLIs and JSON.
[[nodiscard]] std::string_view to_string(ObsLevel level) noexcept;

/// Parse "off" / "counters" / "full".
/// \throws std::invalid_argument otherwise.
[[nodiscard]] ObsLevel parse_obs_level(std::string_view text);

/// Per-run observability settings, embedded by value in
/// sim::ExperimentConfig, dyn::DynConfig, and law::LawConfig. Copyable
/// (configs are value types); the sink is shared, not owned per copy.
struct ObsConfig {
  ObsLevel level = ObsLevel::kOff;
  /// Structured JSON-lines destination (run events, replicate summaries,
  /// heartbeats). Null = no event stream; counters can still be harvested
  /// into the in-memory snapshot.
  std::shared_ptr<TraceSink> sink;
  /// Emit a heartbeat snapshot roughly every this many seconds while a
  /// replicate streams (level kFull with a sink; 0 = no heartbeats).
  /// Heartbeats are observational only — cadence is wall-clock, so their
  /// count is not deterministic, but the run's placements are.
  double heartbeat_seconds = 0.0;

  /// Counter harvesting active (kCounters or kFull)?
  [[nodiscard]] bool counters_on() const noexcept { return level != ObsLevel::kOff; }
  /// Event timing + heartbeats active?
  [[nodiscard]] bool full_on() const noexcept { return level == ObsLevel::kFull; }
  /// One-line "obs=LEVEL[ sink=PATH][ heartbeat=S]" suffix for describe().
  [[nodiscard]] std::string describe() const;
};

}  // namespace bbb::obs
