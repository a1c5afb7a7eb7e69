#include "bbb/sim/runner.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/batched.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/spec.hpp"
#include "bbb/law/one_choice.hpp"
#include "bbb/law/profile.hpp"
#include "bbb/obs/trace_sink.hpp"
#include "bbb/par/parallel_for.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/shard/engine.hpp"

namespace bbb::sim {

namespace {

[[nodiscard]] std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

/// The sparse histogram of level counts: entry i of `counts` is the
/// number of bins at load base + i; entries from `top` on are ignored.
template <typename Count>
[[nodiscard]] stats::IntHistogram level_histogram(const std::vector<Count>& counts,
                                                  std::size_t top,
                                                  std::int64_t base = 0) {
  stats::IntHistogram hist;
  for (std::size_t i = 0; i < top; ++i) {
    if (counts[i] > 0) hist.add(base + static_cast<std::int64_t>(i), counts[i]);
  }
  return hist;
}

}  // namespace

double RunSummary::probes_per_ball() const {
  return config.m > 0 ? probes.mean() / static_cast<double>(config.m) : 0.0;
}

namespace {

/// The exact-tier replicate path for every spec but a bare batched[c] and
/// shards[t >= 2]:, on either layout: stream place_batch over the spec's
/// BinState and read the incremental metrics — no 32-bit load vector, no
/// O(n) metric rescan, so n = 2^30 fits in ~1 GiB compact. Allocations
/// are bit-for-bit the spec's Protocol::run result (which is run_rule over
/// the same allocator); finalize() reproduces the batch-only post-passes
/// (self-balancing sweeps). The layout selects storage only.
ReplicateRecord run_streaming_replicate(const ExperimentConfig& config,
                                        std::uint32_t replicate_index) {
  const auto start = std::chrono::steady_clock::now();
  const auto alloc = core::make_streaming_allocator(config.protocol_spec, config.n,
                                                    config.m, config.layout);
  rng::Engine gen = rng::SeedSequence(config.seed).engine(replicate_index);
  alloc->set_engine_exclusive(true);
  if (config.obs.full_on() && config.obs.sink && config.obs.heartbeat_seconds > 0) {
    // Heartbeat variant of the place loop, kept out of the default path so
    // --obs=off (and plain --obs=counters) runs the bare loop below. The
    // wall-clock poll sits behind a 64Ki-ball stride; heartbeats observe
    // (balls done, current gap) and never touch `gen`.
    obs::Heartbeat heartbeat(config.obs.heartbeat_seconds);
    // The heartbeat stride doubles as the batch size: placements are
    // bit-identical to the place() loop (see PlacementRule::place_batch),
    // and kernel-capable rules vectorize each 64Ki chunk.
    for (std::uint64_t i = 0; i < config.m; i += 0x10000) {
      const std::uint64_t chunk = std::min<std::uint64_t>(0x10000, config.m - i);
      alloc->place_batch(chunk, gen);
      if (heartbeat.due()) {
        obs::JsonLine line("heartbeat", "sim");
        line.field("replicate", static_cast<std::uint64_t>(replicate_index))
            .field("done", i + chunk)
            .field("total", config.m)
            .field("gap", static_cast<std::uint64_t>(alloc->state().gap()));
        config.obs.sink->write(std::move(line));
      }
    }
  } else {
    alloc->place_batch(config.m, gen);
  }
  alloc->finalize(gen);

  const core::BinState& state = alloc->state();
  const core::PlacementRule& rule = alloc->rule();
  ReplicateRecord rec;
  rec.probes = static_cast<double>(rule.probes());
  rec.reallocations = static_cast<double>(rule.reallocations());
  rec.rounds = static_cast<double>(rule.rounds());
  rec.completed = rule.completed();
  rec.max_load = state.max_load();
  rec.min_load = state.min_load();
  rec.gap = state.gap();
  rec.psi = state.psi();
  rec.log_phi = state.log_phi();
  rec.load_histogram =
      level_histogram(state.level_counts(), std::size_t{state.max_load()} + 1);
  if (config.obs.counters_on()) {
    rec.counters = obs::harvest(*alloc);
    rec.wall_ns = elapsed_ns(start);
  }
  return rec;
}

/// The sharded replicate path, for `shards[t]:` specs with t >= 2 in
/// either layout: run the multi-core engine of shard/engine.hpp directly
/// (rather than through its opaque Protocol wrapper) so the merged
/// incremental metrics are read off the per-shard states — no O(n) load
/// materialization — and the shard counters (cross-shard traffic,
/// deferrals, bucket high-water) can be harvested. Results are identical
/// to the wrapper: same derived engine, same consumption.
ReplicateRecord run_sharded_replicate(const ExperimentConfig& config,
                                      std::uint32_t shards,
                                      const std::string& inner_spec,
                                      std::uint32_t replicate_index) {
  const auto start = std::chrono::steady_clock::now();
  shard::ShardOptions opt;
  opt.shards = shards;
  opt.layout = config.layout;
  shard::ShardedAllocator engine(inner_spec, config.n, opt);
  rng::Engine gen = rng::SeedSequence(config.seed).engine(replicate_index);
  engine.run(config.m, gen);

  ReplicateRecord rec;
  rec.probes = static_cast<double>(engine.probes());
  rec.max_load = engine.max_load();
  rec.min_load = engine.min_load();
  rec.gap = engine.gap();
  rec.psi = engine.psi();
  rec.log_phi = engine.log_phi();
  rec.rounds = static_cast<double>(engine.sync_rounds());
  const std::vector<std::uint32_t> levels = engine.merged_level_counts();
  rec.load_histogram = level_histogram(levels, levels.size());
  if (config.obs.counters_on()) {
    rec.counters.probes = engine.probes();
    rec.counters.balls_placed = engine.balls();
    rec.counters.rounds = engine.sync_rounds();
    rec.shard_counters = engine.counters();
    rec.shard_phases = engine.phase_times();
    rec.wall_ns = elapsed_ns(start);
  }
  return rec;
}

/// The law-tier replicate path: draw the occupancy profile's law directly
/// instead of simulating m placements. Only one-choice has a sampled law;
/// the record it fills is distribution-equal (NOT bit-equal) to the exact
/// tiers at the same seed — the cross-validation suite in tests/law/ is
/// what certifies the agreement. Probes are reported as m (one-choice
/// probes once per ball); reallocations and rounds are identically zero.
ReplicateRecord run_law_replicate(const ExperimentConfig& config,
                                  std::uint32_t replicate_index) {
  const std::string canonical = core::make_protocol(config.protocol_spec)->name();
  if (canonical != "one-choice") {
    throw std::invalid_argument(
        "run_replicate: tier=law supports only the one-choice spec, got '" +
        canonical + "' (use greedy/mixed through law::run_law_experiment's "
        "fluid curves instead)");
  }
  const auto start = std::chrono::steady_clock::now();
  rng::Engine gen = rng::SeedSequence(config.seed).engine(replicate_index);
  const law::OccupancyProfile profile =
      law::sample_one_choice_profile(config.m, config.n, gen);

  ReplicateRecord rec;
  rec.probes = static_cast<double>(config.m);
  rec.max_load = profile.max_load();
  rec.min_load = profile.min_load();
  rec.gap = profile.gap();
  rec.psi = profile.psi();
  rec.log_phi = profile.log_phi();
  rec.load_histogram =
      level_histogram(profile.counts(), profile.counts().size(), profile.base());
  if (config.obs.counters_on()) {
    // A sampled profile issues no real probes; report the one-choice cost
    // identity (one probe per ball) so cross-tier accounting lines up.
    rec.counters.probes = config.m;
    rec.counters.balls_placed = config.m;
    rec.wall_ns = elapsed_ns(start);
  }
  return rec;
}

/// The one exact-tier spec whose batch form is not the place loop: a bare
/// batched[c] runs its round-synchronous LW rounds through Protocol::run
/// on every layout, and the metrics are recomputed from the load vector.
/// The run is opaque to obs: only result-level counters, no heartbeats.
ReplicateRecord run_batched_replicate(const ExperimentConfig& config,
                                      const core::Protocol& protocol,
                                      std::uint32_t replicate_index) {
  const auto start = std::chrono::steady_clock::now();
  rng::Engine gen = rng::SeedSequence(config.seed).engine(replicate_index);
  const core::AllocationResult result = protocol.run(config.m, config.n, gen);

  ReplicateRecord rec;
  rec.probes = static_cast<double>(result.probes);
  rec.reallocations = static_cast<double>(result.reallocations);
  rec.rounds = static_cast<double>(result.rounds);
  rec.completed = result.completed;
  const core::LoadMetrics metrics = core::compute_metrics(result.loads, result.balls);
  rec.max_load = metrics.max;
  rec.min_load = metrics.min;
  rec.gap = metrics.gap;
  rec.psi = metrics.psi;
  rec.log_phi = metrics.log_phi;
  rec.load_histogram = core::load_histogram(result.loads);
  if (config.obs.counters_on()) {
    rec.counters = obs::harvest(result);
    rec.wall_ns = elapsed_ns(start);
  }
  return rec;
}

}  // namespace

ReplicateRecord run_replicate(const ExperimentConfig& config,
                              std::uint32_t replicate_index) {
  if (config.tier == Tier::kLaw) {
    return run_law_replicate(config, replicate_index);
  }
  if (const core::SpecPrefix prefix =
          core::split_spec_prefix(config.protocol_spec, "protocol");
      prefix.shards > 1) {
    return run_sharded_replicate(config, prefix.shards, prefix.rest,
                                 replicate_index);
  }
  const auto protocol = core::make_protocol(config.protocol_spec);
  if (dynamic_cast<const core::BatchedProtocol*>(protocol.get()) == nullptr) {
    return run_streaming_replicate(config, replicate_index);
  }
  return run_batched_replicate(config, *protocol, replicate_index);
}

RunSummary run_experiment(const ExperimentConfig& config, par::ThreadPool& pool) {
  if (config.replicates == 0) {
    throw std::invalid_argument("run_experiment: replicates must be positive");
  }
  // Validate the spec (and capture the canonical name) before spawning work.
  const std::string canonical = core::make_protocol(config.protocol_spec)->name();
  if (config.tier == Tier::kLaw && canonical != "one-choice") {
    throw std::invalid_argument(
        "run_experiment: tier=law supports only the one-choice spec");
  }

  const bool obs_on = config.obs.counters_on();
  if (obs_on && config.obs.sink) {
    obs::JsonLine line("run_start", "sim");
    line.begin_object("config")
        .field("describe", config.describe())
        .field("protocol", canonical)
        .field("m", config.m)
        .field("n", static_cast<std::uint64_t>(config.n))
        .field("replicates", static_cast<std::uint64_t>(config.replicates))
        .field("seed", config.seed)
        .field("layout", core::to_string(config.layout))
        .field("tier", to_string(config.tier))
        .end_object();
    config.obs.sink->write(std::move(line));
  }

  RunSummary summary;
  summary.config = config;
  summary.protocol_name = canonical;
  summary.records = par::parallel_map<ReplicateRecord>(
      pool, config.replicates,
      [&config](std::uint64_t r) {
        return run_replicate(config, static_cast<std::uint32_t>(r));
      });

  // Fold in replicate order: summaries are independent of scheduling.
  const auto fold_start = std::chrono::steady_clock::now();
  for (const ReplicateRecord& rec : summary.records) {
    summary.probes.add(rec.probes);
    summary.max_load.add(rec.max_load);
    summary.min_load.add(rec.min_load);
    summary.gap.add(rec.gap);
    summary.psi.add(rec.psi);
    summary.log_phi.add(rec.log_phi);
    summary.reallocations.add(rec.reallocations);
    summary.rounds.add(rec.rounds);
    if (!rec.completed) ++summary.failures;
  }
  const std::uint64_t fold_ns = elapsed_ns(fold_start);

  if (obs_on) {
    // Counters sum, wall times merge into one histogram — all in
    // replicate order, so the snapshot (like every folded statistic) is
    // identical for any thread count.
    obs::MetricsRegistry registry;
    obs::CoreCounters total;
    shard::ShardCounters shard_total;
    shard::ShardPhaseTimes phase_total;
    obs::LatencyHistogram& wall = registry.histogram("sim.replicate.wall_ns");
    for (const ReplicateRecord& rec : summary.records) {
      total.accumulate(rec.counters);
      shard_total += rec.shard_counters;
      phase_total += rec.shard_phases;
      wall.record(rec.wall_ns);
    }
    obs::fold_into(registry, total);
    obs::fold_into(registry, shard_total);
    obs::fold_into(registry, phase_total);
    registry.set_gauge("sim.fold.wall_ns", static_cast<double>(fold_ns));
    summary.obs = registry.snapshot();

    if (config.obs.sink) {
      for (std::uint32_t r = 0; r < summary.records.size(); ++r) {
        const ReplicateRecord& rec = summary.records[r];
        obs::JsonLine line("replicate", "sim");
        line.field("replicate", static_cast<std::uint64_t>(r))
            .begin_object("metrics")
            .field("probes", rec.counters.probes)
            .field("max_load", rec.max_load)
            .field("gap", rec.gap)
            .field("wall_ns", rec.wall_ns)
            .field("completed", rec.completed)
            .end_object();
        config.obs.sink->write(std::move(line));
      }
      obs::JsonLine line("summary", "sim");
      obs::append_metrics(line, summary.obs);
      config.obs.sink->write(std::move(line));
    }
  }

  if (!config.keep_records) {
    summary.records.clear();
    summary.records.shrink_to_fit();
  }
  return summary;
}

RunSummary run_experiment(const ExperimentConfig& config) {
  par::ThreadPool pool;
  return run_experiment(config, pool);
}

}  // namespace bbb::sim
