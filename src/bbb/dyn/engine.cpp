#include "bbb/dyn/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "bbb/dyn/ball_registry.hpp"
#include "bbb/obs/trace_sink.hpp"
#include "bbb/par/parallel_for.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::dyn {

namespace {

[[nodiscard]] std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

/// Reject configs before any allocation: a tail_max near UINT32_MAX would
/// otherwise size the per-level arrays at tens of GiB per replicate.
void check_config(const DynConfig& config) {
  if (config.events == 0) {
    throw std::invalid_argument("run_dynamic: events must be positive");
  }
  if (config.tail_max > DynConfig::kMaxTail) {
    throw std::invalid_argument("run_dynamic: tail_max " +
                                std::to_string(config.tail_max) + " exceeds the cap " +
                                std::to_string(DynConfig::kMaxTail));
  }
}

/// Time integrals of count(load >= k) for k <= tail_max. An event moves
/// one bin across the level boundaries between its old and new load, so
/// only those counts change; a count is integrated (area += count x time
/// held) only when it changes, and once more when the window closes —
/// O(levels crossed) per event instead of O(tail_max).
class LevelTails {
 public:
  explicit LevelTails(std::uint32_t tail_max)
      : levels_(static_cast<std::size_t>(tail_max) + 1) {}

  /// Open the window at time t: zero areas, counts from `state`.
  void start(const BinState& state, double t) {
    for (Level& level : levels_) level = Level{0, 0.0, t};
    recount(state, t);
  }

  /// Re-derive every count from the level histogram (count(load >= k) =
  /// n - count(load < k)). O(tail_max): the path for rules whose
  /// placements move balls other than the one placed (cuckoo).
  void recount(const BinState& state, double t) {
    const auto& counts = state.level_counts();
    std::uint64_t below = 0;
    for (std::size_t k = 0; k < levels_.size(); ++k) {
      const std::uint64_t at_least = state.n() - below;
      if (at_least != levels_[k].count) shift(k, at_least, t);
      if (k < counts.size()) below += counts[k];
    }
  }

  /// One bin went from `old_load` up to `new_load` at time t.
  void grew(std::uint32_t old_load, std::uint32_t new_load, double t) {
    const std::size_t top = std::min<std::size_t>(new_load, levels_.size() - 1);
    for (std::size_t k = std::size_t{old_load} + 1; k <= top; ++k) {
      shift(k, levels_[k].count + 1, t);
    }
  }

  /// One unit left a bin that held `old_load` at time t.
  void shrank(std::uint32_t old_load, double t) {
    if (old_load < levels_.size()) shift(old_load, levels_[old_load].count - 1, t);
  }

  /// Close the window [t_start, t_end]: tail[k] = area_k / (n x window).
  /// tail[0] is exactly 1: its area is the single product n x window.
  [[nodiscard]] std::vector<double> close(double t_end, double window,
                                          std::uint32_t n) const {
    const double denom = static_cast<double>(n) * window;
    std::vector<double> tail(levels_.size());
    for (std::size_t k = 0; k < levels_.size(); ++k) {
      const Level& level = levels_[k];
      tail[k] = (level.area + static_cast<double>(level.count) * (t_end - level.since)) /
                denom;
    }
    return tail;
  }

 private:
  struct Level {
    std::uint64_t count;  ///< bins with load >= k right now
    double area;          ///< integral of count over [t_start, since]
    double since;         ///< time count last changed
  };

  void shift(std::size_t k, std::uint64_t count, double t) {
    Level& level = levels_[k];
    level.area += static_cast<double>(level.count) * (t - level.since);
    level.since = t;
    level.count = count;
  }

  std::vector<Level> levels_;
};

}  // namespace

std::string DynConfig::describe() const {
  std::string desc =
      allocator_spec + " x " + workload_spec + " n=" + std::to_string(n) +
      " warmup=" + std::to_string(warmup) + " events=" + std::to_string(events) +
      " reps=" + std::to_string(replicates) + " seed=" + std::to_string(seed);
  if (layout != core::StateLayout::kWide) {
    desc += " layout=" + std::string(core::to_string(layout));
  }
  desc += obs.describe();
  return desc;
}

double DynSummary::psi_per_bin() const {
  return config.n > 0 ? psi.mean() / static_cast<double>(config.n) : 0.0;
}

DynReplicate run_dynamic_replicate(const DynConfig& config,
                                   std::uint32_t replicate_index) {
  check_config(config);
  const auto alloc = make_streaming_allocator(config.allocator_spec, config.n,
                                              config.m_hint, config.layout);
  const auto workload = make_workload(config.workload_spec, config.n);
  rng::Engine gen = rng::SeedSequence(config.seed).engine(replicate_index);

  // Eviction-based rules (cuckoo) relocate balls after placement, so a
  // recorded ball->bin assignment goes stale; fall back to bin-occupancy
  // victims for them regardless of what the workload asks for.
  const bool stable_balls = alloc->rule().stable_ball_identity();
  const DepartSelect select =
      stable_balls ? workload->depart_select() : DepartSelect::kUniformNonemptyBin;
  if (select == DepartSelect::kUniformNonemptyBin &&
      config.layout != core::StateLayout::kWide) {
    // Fail at config time, not mid-replicate: serving a uniformly random
    // busy bin needs the nonempty index only the wide layout maintains.
    // Name the actual culprit — a bin-serving workload, or a rule whose
    // unstable ball identity forces the bin-victim fallback.
    const std::string why =
        workload->depart_select() == DepartSelect::kUniformNonemptyBin
            ? "workload '" + config.workload_spec +
                  "' serves uniformly random busy bins"
            : "allocator '" + config.allocator_spec +
                  "' relocates balls after placement, forcing bin-occupancy "
                  "departure victims";
    throw std::invalid_argument(
        "run_dynamic: " + why +
        ", which the compact layout does not index; use layout=wide");
  }
  const bool track_balls = select != DepartSelect::kUniformNonemptyBin;
  // Atomic weighted arrivals (weighted:chains): the whole chain lands in
  // one bin via place_one(state, w, gen) when the rule can commit it
  // atomically; rules without supports_weights() keep the unit-explode
  // fallback below.
  const bool atomic_weights =
      workload->atomic_arrivals() && alloc->rule().supports_weights();
  BallRegistry registry;
  const BinState& state = alloc->state();

  DynReplicate rep;
  const std::uint64_t stride = config.stride == 0 ? config.events : config.stride;
  rep.snapshots.reserve(static_cast<std::size_t>(config.events / stride) + 1);

  // The measured window opens after event `warmup` (at t_start) and closes
  // at the last event's time. Scalars accumulate weight x value per event,
  // where weight is how long the previous state was held; Ψ = S2 - t²/n is
  // accumulated as its exact parts and divided once at the end. The tails
  // are integrated at level crossings by LevelTails.
  std::uint64_t probes_at_start = 0;
  std::uint64_t placed_at_start = 0;
  LevelTails tails(config.tail_max);
  double balls_sum = 0.0, s2_sum = 0.0, t2_sum = 0.0, gap_sum = 0.0, max_sum = 0.0;
  double t_start = 0.0;
  double prev_time = 0.0;
  if (config.warmup == 0) tails.start(state, t_start);

  // Per-event timing only at obs level full: dyn events are microsecond-
  // scale (registry + metric bookkeeping per event), so two extra clock
  // reads behind this predictable branch are proportionate here in a way
  // they would not be in the nanosecond batch placement loop. The clock
  // reads never touch `gen`: placements stay bit-for-bit identical.
  const bool timing = config.obs.full_on();
  const bool heartbeats =
      config.obs.full_on() && config.obs.sink && config.obs.heartbeat_seconds > 0;
  obs::Heartbeat heartbeat(config.obs.heartbeat_seconds);
  const auto wall_start = std::chrono::steady_clock::now();

  const std::uint64_t total_events = config.warmup + config.events;
  for (std::uint64_t e = 1; e <= total_events; ++e) {
    const WorkloadContext ctx{state.balls(), state.nonempty_bins()};
    const DynEvent ev = workload->next(gen, ctx);
    const bool measured = e > config.warmup;

    // Time-weighted steady-state averages: the state produced by event
    // e - 1 was held for ev.time - prev_time. Event-counting averages would
    // sample the embedded jump chain instead, which over-weights
    // high-occupancy states for the continuous-time workloads (the total
    // event rate grows with occupancy); weighting by the holding time
    // recovers the time-stationary quantities the fixed-point predictions
    // describe.
    if (measured) {
      const double weight = ev.time - prev_time;
      const auto balls = static_cast<double>(state.balls());
      balls_sum += weight * balls;
      s2_sum += weight * static_cast<double>(state.sum_squares());
      t2_sum += weight * (balls * balls);
      gap_sum += weight * static_cast<double>(state.gap());
      max_sum += weight * static_cast<double>(state.max_load());
      if (state.max_load() > rep.peak_max) rep.peak_max = state.max_load();
    }
    prev_time = ev.time;
    // Stable-identity rules change exactly the bin they return, by the
    // weight placed or removed; the rest re-derive the tails below. The
    // tail updates sit outside the timed place/remove calls.
    const bool crossings = measured && stable_balls;
    const auto grew = [&](std::uint32_t bin, std::uint32_t weight) {
      const std::uint32_t load = state.load(bin);
      tails.grew(load - weight, load, ev.time);
    };

    if (ev.kind == EventKind::kArrival) {
      const auto place_start = timing ? std::chrono::steady_clock::now()
                                      : std::chrono::steady_clock::time_point{};
      std::uint32_t bin = 0;
      std::uint32_t last_weight = ev.weight;
      if (atomic_weights && ev.weight > 1) {
        bin = alloc->place_weighted(ev.weight, gen);
        // Departures are still per unit ball: register each chain link.
        if (track_balls) {
          for (std::uint32_t w = 0; w < ev.weight; ++w) registry.push(bin);
        }
      } else {
        last_weight = std::min<std::uint32_t>(ev.weight, 1);  // 0: nothing placed
        for (std::uint32_t w = 0; w < ev.weight; ++w) {
          // A unit's crossings are taken before the next unit moves a load.
          if (crossings && w > 0) grew(bin, 1);
          bin = alloc->place(gen);
          if (track_balls) registry.push(bin);
        }
      }
      if (timing) rep.place_ns.record(elapsed_ns(place_start));
      if (crossings) grew(bin, last_weight);
    } else if (ctx.balls > 0) {
      const auto remove_start = timing ? std::chrono::steady_clock::now()
                                       : std::chrono::steady_clock::time_point{};
      std::uint32_t bin = 0;
      switch (select) {
        case DepartSelect::kUniformBall:
          bin = registry.pop_uniform(gen);
          break;
        case DepartSelect::kOldestBall:
          bin = registry.pop_oldest();
          break;
        case DepartSelect::kUniformNonemptyBin:
          bin = state.sample_nonempty(gen);
          break;
      }
      const std::uint32_t load = state.load(bin);
      alloc->remove(bin);
      if (timing) rep.remove_ns.record(elapsed_ns(remove_start));
      if (crossings) tails.shrank(load, ev.time);
    } else {
      // The shipped generators never emit a departure when the system is
      // empty (that clock has rate zero); count instead of silently
      // swallowing so a broken custom generator is visible — the event
      // still advanced the clock and consumed a measured slot.
      ++rep.dropped_departures;
    }
    if (measured && !stable_balls) tails.recount(state, ev.time);

    if (heartbeats && (e & 0xFFF) == 0 && heartbeat.due()) {
      // Wall-clock progress signal for long churn runs (warmup included —
      // that is exactly when a giant run looks hung). Observational only.
      obs::JsonLine line("heartbeat", "dyn");
      line.field("replicate", static_cast<std::uint64_t>(replicate_index))
          .field("done", e)
          .field("total", total_events)
          .field("balls", state.balls())
          .field("gap", static_cast<std::uint64_t>(state.gap()));
      config.obs.sink->write(std::move(line));
    }

    if (e == config.warmup) {
      probes_at_start = alloc->probes();
      placed_at_start = alloc->total_placed();
      t_start = ev.time;
      tails.start(state, t_start);
    }
    if (!measured) continue;

    const std::uint64_t done = e - config.warmup;
    if (done % stride == 0 || done == config.events) {
      DynSnapshot snap;
      snap.time = ev.time;
      snap.events = done;
      snap.balls = state.balls();
      snap.probes = alloc->probes();
      snap.max_load = state.max_load();
      snap.min_load = state.min_load();
      snap.psi = state.psi();
      snap.log_phi = state.log_phi();
      if (rep.snapshots.empty() || rep.snapshots.back().events != done) {
        rep.snapshots.push_back(snap);
      }
    }
  }

  // Workload clocks strictly increase, so the measured window has positive
  // length whenever events >= 1.
  const double window = prev_time - t_start;
  rep.mean_balls = balls_sum / window;
  rep.mean_psi = (s2_sum - t2_sum / static_cast<double>(state.n())) / window;
  rep.mean_gap = gap_sum / window;
  rep.mean_max = max_sum / window;
  rep.tail = tails.close(prev_time, window, state.n());
  const std::uint64_t placed = alloc->total_placed() - placed_at_start;
  rep.probes_per_ball =
      placed > 0
          ? static_cast<double>(alloc->probes() - probes_at_start) /
                static_cast<double>(placed)
          : 0.0;
  if (config.obs.counters_on()) {
    rep.counters = obs::harvest(*alloc);
    rep.wall_ns = elapsed_ns(wall_start);
  }
  return rep;
}

DynSummary run_dynamic(const DynConfig& config, par::ThreadPool& pool) {
  if (config.replicates == 0) {
    throw std::invalid_argument("run_dynamic: replicates must be positive");
  }
  check_config(config);
  // Validate both specs (and capture canonical names) before spawning work.
  const std::string alloc_name =
      make_streaming_allocator(config.allocator_spec, config.n, config.m_hint,
                               config.layout)
          ->name();
  const std::string workload_name = make_workload(config.workload_spec, config.n)->name();

  const bool obs_on = config.obs.counters_on();
  if (obs_on && config.obs.sink) {
    obs::JsonLine line("run_start", "dyn");
    line.begin_object("config")
        .field("describe", config.describe())
        .field("allocator", alloc_name)
        .field("workload", workload_name)
        .field("n", static_cast<std::uint64_t>(config.n))
        .field("warmup", config.warmup)
        .field("events", config.events)
        .field("replicates", static_cast<std::uint64_t>(config.replicates))
        .field("seed", config.seed)
        .field("layout", core::to_string(config.layout))
        .end_object();
    config.obs.sink->write(std::move(line));
  }

  DynSummary summary;
  summary.config = config;
  summary.allocator_name = alloc_name;
  summary.workload_name = workload_name;
  summary.tail.assign(static_cast<std::size_t>(config.tail_max) + 1,
                      stats::RunningStats{});
  summary.replicates = par::parallel_map<DynReplicate>(
      pool, config.replicates, [&config](std::uint64_t r) {
        return run_dynamic_replicate(config, static_cast<std::uint32_t>(r));
      });

  // Fold in replicate order: summaries are independent of scheduling.
  for (const DynReplicate& rep : summary.replicates) {
    summary.balls.add(rep.mean_balls);
    summary.psi.add(rep.mean_psi);
    summary.gap.add(rep.mean_gap);
    summary.max_load.add(rep.mean_max);
    summary.peak_max.add(static_cast<double>(rep.peak_max));
    summary.probes_per_ball.add(rep.probes_per_ball);
    summary.dropped_departures += rep.dropped_departures;
    for (std::size_t k = 0; k < summary.tail.size() && k < rep.tail.size(); ++k) {
      summary.tail[k].add(rep.tail[k]);
    }
  }

  if (obs_on) {
    // Counters sum, per-replicate latency histograms merge losslessly —
    // in replicate order, so the snapshot is thread-count independent.
    obs::MetricsRegistry registry;
    obs::CoreCounters total;
    obs::LatencyHistogram& wall = registry.histogram("dyn.replicate.wall_ns");
    for (const DynReplicate& rep : summary.replicates) {
      total.accumulate(rep.counters);
      wall.record(rep.wall_ns);
    }
    if (config.obs.full_on()) {
      // The event histograms only exist at level full; registering them
      // empty at level counters would clutter the summary table.
      obs::LatencyHistogram& place = registry.histogram("dyn.event.place_latency_ns");
      obs::LatencyHistogram& remove =
          registry.histogram("dyn.event.remove_latency_ns");
      for (const DynReplicate& rep : summary.replicates) {
        place.merge(rep.place_ns);
        remove.merge(rep.remove_ns);
      }
    }
    obs::fold_into(registry, total);
    registry.add_counter("dyn.event.dropped_departures", summary.dropped_departures);
    registry.set_gauge("dyn.gauge.gap", summary.gap.mean());
    registry.set_gauge("dyn.gauge.psi", summary.psi.mean());
    summary.obs = registry.snapshot();

    if (config.obs.sink) {
      for (std::uint32_t r = 0; r < summary.replicates.size(); ++r) {
        const DynReplicate& rep = summary.replicates[r];
        obs::JsonLine line("replicate", "dyn");
        line.field("replicate", static_cast<std::uint64_t>(r))
            .begin_object("metrics")
            .field("probes", rep.counters.probes)
            .field("mean_gap", rep.mean_gap)
            .field("peak_max", static_cast<std::uint64_t>(rep.peak_max))
            .field("dropped_departures", rep.dropped_departures)
            .field("wall_ns", rep.wall_ns)
            .end_object();
        config.obs.sink->write(std::move(line));
      }
      obs::JsonLine line("summary", "dyn");
      obs::append_metrics(line, summary.obs);
      config.obs.sink->write(std::move(line));
    }
  }
  return summary;
}

DynSummary run_dynamic(const DynConfig& config) {
  par::ThreadPool pool;
  return run_dynamic(config, pool);
}

}  // namespace bbb::dyn
