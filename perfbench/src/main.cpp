/// \file main.cpp
/// perfbench — the repository benchmark. One process runs one workload:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// `--trace 0` times the workload's public entry point (sim::run_experiment,
/// dyn::run_dynamic or shard::ShardedAllocator::run) with observability off
/// and prints the end-to-end metrics. `--trace 1` prints the per-layer
/// metrics: it pairs untraced with traced calls at the same seed, runs the
/// layer-isolation cases (RNG words, Lemire map, a BinState replay of the
/// recorded placements, the sequential greedy[2] twin of the sharded run)
/// and records spans around every public call it makes. Both modes run the
/// output checks; the last line of stdout is one JSON object
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
/// See perfbench/README.md for the workloads and what each metric predicts.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bbb/core/bin_state.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/core/simd/batch_ops.hpp"
#include "bbb/core/spec.hpp"
#include "bbb/dyn/allocator.hpp"
#include "bbb/dyn/engine.hpp"
#include "bbb/dyn/workload.hpp"
#include "bbb/obs/metrics.hpp"
#include "bbb/obs/obs.hpp"
#include "bbb/par/thread_pool.hpp"
#include "bbb/rng/engine.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/shard/engine.hpp"
#include "bbb/sim/runner.hpp"
#include "checks.hpp"
#include "spans.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace bbb;
using perfbench::CheckTally;
using perfbench::now_ns;
using perfbench::Placement;
using perfbench::SpanRecorder;

/// Balls per place_batch call in the decomposed replicate, and events per
/// replay flush: the recorded-bins buffer stays at 4 MiB at any m.
constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
/// Set-ups run one after another until they add up to this; setup_s is the
/// fastest.
constexpr double kSetupBudgetS = 2.0;
/// make_streaming_allocator spans behind core.setup_s.
constexpr int kCoreSetupSpans = 9;
/// gap() + psi() + log_phi() reads per state.metric_read_ns sample.
constexpr std::uint64_t kMetricReads = std::uint64_t{1} << 20;

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names and units; the tiny
// run test checks that the two agree.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},         {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},      {"ops_per_cpu_s", "1/s"},
    {"probes_per_ball", "probes"}, {"pass_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"rng.word_ns", "ns"},
    {"rng.lemire_ns", "ns"},
    {"state.add_ns", "ns"},
    {"state.compact.promotions", "count"},
    {"state.compact.demotions", "count"},
    {"state.metric_read_ns", "ns"},
    {"core.probe.count", "count"},
    {"core.lookahead.refills", "count"},
    {"core.lookahead.discarded_words", "count"},
    {"core.batch.fast_balls", "count"},
    {"core.batch.fallback_balls", "count"},
    {"core.batch.waves", "count"},
    {"core.batch.fast_ratio", "ratio"},
    {"core.batch.fast_ratio.base", "count"},
    {"core.batch.balls_per_wave", "ball/wave"},
    {"core.place_ns_per_ball", "ns"},
    {"core.rule.self_ns_per_ball", "ns_estimate"},
    {"core.finalize_s", "s"},
    {"core.setup_s", "s"},
    {"sim.replicate_s.p50", "s"},
    {"sim.replicate_s.max", "s"},
    {"sim.fold_s", "s"},
    {"sim.driver.self_s", "s"},
    {"dyn.place_ns.p50", "ns"},
    {"dyn.place_ns.p99", "ns"},
    {"dyn.remove_ns.p50", "ns"},
    {"dyn.remove_ns.p99", "ns"},
    {"dyn.loop.self_ns_per_event", "ns"},
    {"dyn.dropped_departures", "count"},
    {"shard.run_s", "s"},
    {"shard.sync_rounds", "count"},
    {"shard.ring.highwater", "count"},
    {"shard.messages_per_ball", "msg/ball"},
    {"shard.messages_per_ball.base", "count"},
    {"shard.cross_shard_ratio", "ratio"},
    {"shard.cross_shard_ratio.base", "count"},
    {"shard.deferred_ratio", "ratio"},
    {"shard.deferred_ratio.base", "count"},
    {"shard.speedup_vs_seq", "x"},
    {"obs.trace_overhead", "ratio"},
};

using Values = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kSim, kDyn, kShard };

/// Which load bound the output checks hold the result to.
enum class Bound { kNone, kTheorem31, kGreedyGap };

struct Workload {
  std::string name;
  Kind kind = Kind::kSim;
  std::string spec;  ///< registry spec, as a user passes it to the CLIs
  core::StateLayout layout = core::StateLayout::kCompact;
  std::uint32_t n = 0;
  std::uint64_t m = 0;       ///< balls (sim, shard) or churn population (dyn)
  std::uint64_t warmup = 0;  ///< dyn: burn-in events
  std::uint64_t events = 0;  ///< dyn: measured events
  Bound bound = Bound::kNone;

  /// Ball placements, or for dyn every arrival and departure event.
  [[nodiscard]] std::uint64_t ops() const { return kind == Kind::kDyn ? warmup + events : m; }
  [[nodiscard]] std::string churn_spec() const { return "churn[" + std::to_string(m) + "]"; }
};

/// The four named workloads. BENCHMARK.json lists dyn-churn and shard-greedy;
/// the paper workloads run by hand (see README.md). `tiny` shrinks n, keeping
/// m/n and the event ratios, for the benchmark's own tests.
Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "paper-light") {
    w.spec = "adaptive";
    w.n = tiny ? 1u << 10 : 1u << 22;
    w.m = 8ull * w.n;
    w.bound = Bound::kTheorem31;
  } else if (name == "paper-heavy") {
    w.spec = "adaptive";
    w.n = tiny ? 1u << 8 : 1u << 16;
    w.m = 1024ull * w.n;
    w.bound = Bound::kTheorem31;
  } else if (name == "dyn-churn") {
    w.kind = Kind::kDyn;
    w.spec = "adaptive-net";
    w.layout = core::StateLayout::kWide;
    w.n = tiny ? 1u << 8 : 1u << 14;
    w.m = 4ull * w.n;
    w.warmup = 4ull * w.n;
    w.events = 8ull * w.n;
  } else if (name == "shard-greedy") {
    w.kind = Kind::kShard;
    w.spec = "shards[4]:greedy[2]";
    w.n = tiny ? 1u << 12 : 1u << 22;
    w.m = 8ull * w.n;
    w.bound = Bound::kGreedyGap;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (paper-light, paper-heavy, dyn-churn, shard-greedy)");
  }
  return w;
}

/// The sequential compact greedy[2] run of the shard workload's instance.
Workload sequential_twin(const Workload& shard_workload) {
  Workload w = shard_workload;
  w.kind = Kind::kSim;
  w.spec = core::split_spec_prefix(shard_workload.spec, "protocol").rest;
  return w;
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

/// Keep `value` (and what it points to) alive for the optimizer.
template <typename T>
void escape(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Quantile q of v, interpolated linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak RSS of this process image: VmHWM, not getrusage's ru_maxrss, which
/// Linux carries across execve and so can report the launching process's
/// peak (run.py's Python interpreter) instead of the benchmark's own.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

/// Master seed of timed iteration i: derived from --seed only, so the same
/// seed gives the same inputs.
std::uint64_t iteration_seed(std::uint64_t base, std::uint64_t i) {
  return rng::SeedSequence(base).seed(i);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The measuring window of a run. Another call starts only while half of
/// the previous one still fits, so a run ends within half a call of
/// --seconds; the first call always runs.
class Budget {
 public:
  explicit Budget(double seconds)
      : end_(now_ns() + static_cast<std::uint64_t>(seconds * 1e9)) {}

  /// Call before each iteration.
  bool next() {
    const std::uint64_t t = now_ns();
    const bool more = last_ == 0 || t + (t - last_) / 2 < end_;
    last_ = t;
    return more;
  }

 private:
  std::uint64_t end_;
  std::uint64_t last_ = 0;
};

// ---------------------------------------------------------------------------
// One call through a workload's public entry point
// ---------------------------------------------------------------------------

struct Outcome {
  std::uint64_t wall_ns = 0;  ///< first placement to the final metric reads
  std::uint64_t call_ns = 0;  ///< the whole call, construction included
  std::uint64_t cpu_ns = 0;   ///< process CPU time over wall_ns
  double probes_per_ball = 0.0;
  Placement place;
  obs::Snapshot snapshot;  ///< sim / dyn at obs level above off
  shard::ShardCounters shard;
  std::uint64_t sync_rounds = 0;
  std::uint64_t dropped_departures = 0;
};

void check_bound(const Workload& w, double max_load, CheckTally& checks) {
  if (w.bound == Bound::kTheorem31) {
    checks.expect(perfbench::within_theorem31(max_load, w.m, w.n),
                  w.name + ": max load <= ceil(m/n)+1 (Theorem 3.1)");
  } else if (w.bound == Bound::kGreedyGap) {
    checks.expect(perfbench::greedy_gap_holds(max_load, w.m, w.n),
                  w.name + ": max - m/n <= log2 ln n + c");
  }
}

Outcome run_sim(const Workload& w, std::uint64_t seed, par::ThreadPool& pool,
                obs::ObsLevel level, CheckTally& checks) {
  sim::ExperimentConfig cfg;
  cfg.protocol_spec = w.spec;
  cfg.m = w.m;
  cfg.n = w.n;
  cfg.replicates = 1;
  cfg.seed = seed;
  cfg.layout = w.layout;
  cfg.obs.level = level;
  Outcome o;
  const std::uint64_t c0 = cpu_ns();
  const std::uint64_t t0 = now_ns();
  sim::RunSummary s = sim::run_experiment(cfg, pool);
  o.wall_ns = o.call_ns = now_ns() - t0;
  o.cpu_ns = cpu_ns() - c0;
  const sim::ReplicateRecord& r = s.records.front();
  o.probes_per_ball = s.probes_per_ball();
  o.place = {r.max_load, r.min_load, r.psi};
  o.snapshot = std::move(s.obs);
  checks.expect(s.failures == 0 && r.completed, w.name + ": replicate completed");
  check_bound(w, r.max_load, checks);
  return o;
}

Outcome run_dyn(const Workload& w, std::uint64_t seed, par::ThreadPool& pool,
                obs::ObsLevel level, CheckTally& checks) {
  dyn::DynConfig cfg;
  cfg.allocator_spec = w.spec;
  cfg.workload_spec = w.churn_spec();
  cfg.n = w.n;
  cfg.layout = w.layout;
  cfg.warmup = w.warmup;
  cfg.events = w.events;
  cfg.replicates = 1;
  cfg.seed = seed;
  cfg.obs.level = level;
  Outcome o;
  const std::uint64_t c0 = cpu_ns();
  const std::uint64_t t0 = now_ns();
  dyn::DynSummary s = dyn::run_dynamic(cfg, pool);
  o.wall_ns = o.call_ns = now_ns() - t0;
  o.cpu_ns = cpu_ns() - c0;
  const dyn::DynReplicate& r = s.replicates.front();
  const dyn::DynSnapshot& last = r.snapshots.back();
  o.probes_per_ball = r.probes_per_ball;
  o.place = {static_cast<double>(last.max_load), static_cast<double>(last.min_load),
             last.psi};
  o.snapshot = std::move(s.obs);
  o.dropped_departures = r.dropped_departures;
  checks.expect(perfbench::population_holds(last.balls, w.m, r.dropped_departures),
                w.name + ": balls in system == population, no dropped departures");
  return o;
}

shard::ShardOptions shard_options(const Workload& w, const core::SpecPrefix& prefix) {
  shard::ShardOptions opt;
  opt.shards = prefix.shards;
  opt.layout = w.layout;
  opt.m_hint = w.m;
  return opt;
}

Outcome run_shard(const Workload& w, std::uint64_t seed, CheckTally& checks,
                  SpanRecorder* spans) {
  Outcome o;
  const std::uint64_t call_start = now_ns();
  std::optional<shard::ShardedAllocator> engine;
  {
    const auto s = SpanRecorder::maybe(spans, "shard.construct");
    const core::SpecPrefix prefix = core::split_spec_prefix(w.spec, "protocol");
    engine.emplace(prefix.rest, w.n, shard_options(w, prefix));
  }
  rng::Engine gen = rng::SeedSequence(seed).engine(0);
  const std::uint64_t c0 = cpu_ns();
  const std::uint64_t t0 = now_ns();
  {
    const auto s = SpanRecorder::maybe(spans, "shard.run");
    engine->run(w.m, gen);
  }
  {
    const auto s = SpanRecorder::maybe(spans, "shard.metric_read");
    o.place = {static_cast<double>(engine->max_load()),
               static_cast<double>(engine->min_load()), engine->psi()};
    escape(engine->log_phi());
  }
  o.wall_ns = now_ns() - t0;
  o.cpu_ns = cpu_ns() - c0;
  o.call_ns = now_ns() - call_start;
  o.probes_per_ball = ratio(static_cast<double>(engine->probes()), static_cast<double>(w.m));
  o.shard = engine->counters();
  o.sync_rounds = engine->sync_rounds();
  checks.expect(perfbench::conservation_holds(engine->balls(), w.m,
                                              engine->merged_level_counts(), w.n),
                w.name + ": conservation (balls == m, level counts)");
  check_bound(w, o.place.max_load, checks);
  return o;
}

Outcome run_once(const Workload& w, std::uint64_t seed, par::ThreadPool& pool,
                 obs::ObsLevel level, CheckTally& checks) {
  switch (w.kind) {
    case Kind::kSim:
      return run_sim(w, seed, pool, level, checks);
    case Kind::kDyn:
      return run_dyn(w, seed, pool, level, checks);
    case Kind::kShard:
      return run_shard(w, seed, checks, nullptr);
  }
  throw std::logic_error("unreachable");
}

/// One set-up as the entry points do it: spec parse, registry dispatch,
/// state and rule construction, and the pool spawn (sim, dyn). For shard it
/// is the engine's construction and a run of zero balls, which builds the
/// per-shard state and spawns and joins the workers, as every run() does.
/// Teardown happens after the clock stops.
double setup_once(const Workload& w) {
  std::optional<par::ThreadPool> pool;
  std::unique_ptr<core::StreamingAllocator> alloc;
  std::unique_ptr<dyn::Workload> events;
  std::optional<shard::ShardedAllocator> engine;
  const std::uint64_t t0 = now_ns();
  switch (w.kind) {
    case Kind::kSim:
      pool.emplace(1);
      escape(core::make_protocol(w.spec)->name());
      alloc = core::make_streaming_allocator(w.spec, w.n, w.m, w.layout);
      break;
    case Kind::kDyn:
      pool.emplace(1);
      alloc = dyn::make_streaming_allocator(w.spec, w.n, 0, w.layout);
      events = dyn::make_workload(w.churn_spec(), w.n);
      break;
    case Kind::kShard: {
      const core::SpecPrefix prefix = core::split_spec_prefix(w.spec, "protocol");
      engine.emplace(prefix.rest, w.n, shard_options(w, prefix));
      rng::Engine gen = rng::SeedSequence(0).engine(0);
      engine->run(0, gen);  // builds the per-shard state, spawns and joins the workers
      break;
    }
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// ---------------------------------------------------------------------------
// Layer isolation
// ---------------------------------------------------------------------------

/// What the decomposed replicate measured, layer by layer.
struct Decomposed {
  Placement place;
  double probes_per_ball = 0.0;
  double state_op_ns = 0.0;        ///< per replayed add (or remove, dyn)
  double place_ns_per_ball = 0.0;  ///< sim only: the place_batch spans
  double finalize_s = 0.0;
  double metric_read_ns = 0.0;
};

double time_metric_reads(const core::BinState& state, SpanRecorder& spans) {
  double sink = 0.0;
  {
    const auto s = spans.scope("state.metric_read");
    for (std::uint64_t i = 0; i < kMetricReads; ++i) {
      escape(&state);  // forces a fresh read of every metric
      sink += static_cast<double>(state.gap()) + state.psi() + state.log_phi();
    }
  }
  escape(sink);
  return static_cast<double>(spans.durations("state.metric_read").back()) /
         static_cast<double>(kMetricReads);
}

/// The sequential replicate run_experiment performs for `w` at `seed`,
/// driven layer by layer: the rule's place_batch in chunks with bins_out,
/// each chunk's recorded bins replayed into a fresh BinState of the same
/// layout, then finalize and the metric reads — one span per call.
Decomposed decompose_sim(const Workload& w, std::uint64_t seed, SpanRecorder& spans,
                         CheckTally& checks) {
  spans.begin_job();
  Decomposed d;
  const auto job = spans.scope("perfbench.replicate");
  std::unique_ptr<core::PlacementRule> rule;
  {
    const auto s = spans.scope("core.make_rule");
    rule = core::make_rule(w.spec, w.n, w.m);
  }
  std::optional<core::BinState> state;
  std::optional<core::BinState> replay;
  {
    const auto s = spans.scope("state.construct");
    state.emplace(w.n, w.layout);
    replay.emplace(w.n, w.layout);
  }
  rng::Engine gen = rng::SeedSequence(seed).engine(0);
  rule->set_engine_exclusive(true);  // as the sim's streaming replicate does
  std::vector<std::uint32_t> bins(static_cast<std::size_t>(std::min(w.m, kChunk)));
  for (std::uint64_t done = 0; done < w.m;) {
    const std::uint64_t c = std::min(kChunk, w.m - done);
    {
      const auto s = spans.scope("core.place_batch");
      rule->place_batch(*state, c, gen, bins.data());
    }
    {
      const auto s = spans.scope("state.replay");
      for (std::uint64_t j = 0; j < c; ++j) replay->add_ball(bins[j]);
    }
    done += c;
  }
  {
    const auto s = spans.scope("core.finalize");
    rule->finalize(*state, gen);
  }
  d.metric_read_ns = time_metric_reads(*state, spans);
  d.place = {static_cast<double>(state->max_load()), static_cast<double>(state->min_load()),
             state->psi()};
  const double m = static_cast<double>(w.m);
  d.probes_per_ball = static_cast<double>(rule->probes()) / m;
  d.state_op_ns = static_cast<double>(spans.total_ns("state.replay")) / m;
  d.place_ns_per_ball = static_cast<double>(spans.total_ns("core.place_batch")) / m;
  d.finalize_s = static_cast<double>(spans.total_ns("core.finalize")) * 1e-9;
  checks.expect(perfbench::level_identity_holds(state->level_counts(), state->balls(), w.n) &&
                    state->balls() == w.m,
                w.name + ": sum of level counts x level == balls placed");
  checks.expect(Placement{static_cast<double>(replay->max_load()),
                          static_cast<double>(replay->min_load()), replay->psi()} == d.place,
                w.name + ": BinState replay of bins_out matches the placed state");
  check_bound(w, d.place.max_load, checks);
  return d;
}

/// dyn::run_dynamic's event loop for `w` at `seed`, mirrored on an
/// allocator the benchmark owns so its final state can be checked: the
/// same engine feeds the churn generator, the placements and the
/// uniform-ball victim picks in the same order, so the final state must
/// equal run_dynamic's. Every add and remove is logged and replayed into a
/// fresh BinState in chunks.
Decomposed decompose_dyn(const Workload& w, std::uint64_t seed, SpanRecorder& spans,
                         CheckTally& checks) {
  spans.begin_job();
  Decomposed d;
  const auto job = spans.scope("perfbench.replicate");
  std::unique_ptr<core::StreamingAllocator> alloc;
  std::unique_ptr<dyn::Workload> events;
  {
    const auto s = spans.scope("dyn.make_streaming_allocator");
    alloc = dyn::make_streaming_allocator(w.spec, w.n, 0, w.layout);
  }
  {
    const auto s = spans.scope("dyn.make_workload");
    events = dyn::make_workload(w.churn_spec(), w.n);
  }
  if (events->depart_select() != dyn::DepartSelect::kUniformBall ||
      !alloc->rule().stable_ball_identity()) {
    throw std::logic_error("dyn mirror supports uniform-ball departures only");
  }
  std::optional<core::BinState> replay;
  {
    const auto s = spans.scope("state.construct");
    replay.emplace(w.n, w.layout);
  }
  rng::Engine gen = rng::SeedSequence(seed).engine(0);
  constexpr std::uint32_t kRemove = 1u << 31;  // n < 2^31, so bin ids fit below
  std::vector<std::uint32_t> live;
  std::vector<std::uint32_t> log;
  log.reserve(kChunk);
  std::uint64_t dropped = 0;
  std::uint64_t replayed = 0;
  const auto flush = [&] {
    const auto s = spans.scope("state.replay");
    for (const std::uint32_t e : log) {
      if ((e & kRemove) != 0) {
        replay->remove_ball(e & ~kRemove);
      } else {
        replay->add_ball(e);
      }
    }
    replayed += log.size();
    log.clear();
  };
  {
    const auto loop = spans.scope("perfbench.event_loop");
    for (std::uint64_t e = 0; e < w.warmup + w.events; ++e) {
      const dyn::WorkloadContext ctx{alloc->state().balls(), alloc->state().nonempty_bins()};
      const dyn::DynEvent ev = events->next(gen, ctx);
      if (ev.kind == dyn::EventKind::kArrival) {
        for (std::uint32_t k = 0; k < ev.weight; ++k) {
          const std::uint32_t bin = alloc->place(gen);
          live.push_back(bin);
          log.push_back(bin);
        }
      } else if (ctx.balls > 0) {
        const auto idx = static_cast<std::size_t>(rng::uniform_below(gen, live.size()));
        const std::uint32_t bin = live[idx];
        live[idx] = live.back();
        live.pop_back();
        alloc->remove(bin);
        log.push_back(bin | kRemove);
      } else {
        ++dropped;
      }
      if (log.size() >= kChunk) flush();
    }
    flush();
  }
  const core::BinState& state = alloc->state();
  d.place = {static_cast<double>(state.max_load()), static_cast<double>(state.min_load()),
             state.psi()};
  {
    // Streaming drivers never finalize; adaptive-net's finalize is the
    // no-op default, timed so core.finalize_s is defined on every workload.
    const auto s = spans.scope("core.finalize");
    alloc->finalize(gen);
  }
  d.metric_read_ns = time_metric_reads(state, spans);
  d.probes_per_ball = ratio(static_cast<double>(alloc->probes()),
                            static_cast<double>(alloc->total_placed()));
  d.state_op_ns = ratio(static_cast<double>(spans.total_ns("state.replay")),
                        static_cast<double>(replayed));
  d.finalize_s = static_cast<double>(spans.total_ns("core.finalize")) * 1e-9;
  checks.expect(perfbench::level_identity_holds(state.level_counts(), state.balls(), w.n),
                w.name + ": sum of level counts x level == balls in system");
  checks.expect(perfbench::population_holds(state.balls(), w.m, dropped),
                w.name + ": mirror holds the population, no dropped departures");
  checks.expect(Placement{static_cast<double>(replay->max_load()),
                          static_cast<double>(replay->min_load()), replay->psi()} == d.place,
                w.name + ": BinState replay of the event log matches the live state");
  return d;
}

/// rng.word_ns (one rng::Engine draw) and rng.lemire_ns (one lemire_map at
/// bound n), each the median of several batches of 2^22.
void measure_rng(std::uint32_t n, std::uint64_t seed, SpanRecorder& spans, Values& out) {
  constexpr std::uint64_t kDraws = std::uint64_t{1} << 22;
  constexpr int kBatches = 7;
  rng::Engine gen = rng::SeedSequence(seed).engine(~std::uint64_t{0});
  std::vector<std::uint64_t> words(4096);
  for (std::uint64_t& x : words) x = gen();
  spans.begin_job();
  for (int b = 0; b < kBatches; ++b) {
    std::uint64_t acc = 0;
    {
      const auto s = spans.scope("rng.words");
      for (std::uint64_t i = 0; i < kDraws; ++i) acc += gen();
      escape(acc);
    }
    {
      const auto s = spans.scope("rng.lemire_map");
      for (std::uint64_t i = 0; i < kDraws; ++i) {
        acc += rng::lemire_map(words[i & (words.size() - 1)], n);
      }
      escape(acc);
    }
  }
  const auto per_op = [&](std::string_view name) {
    std::vector<double> v;
    for (const std::uint64_t ns : spans.durations(name)) {
      v.push_back(static_cast<double>(ns) / static_cast<double>(kDraws));
    }
    return median(v);
  };
  out["rng.word_ns"] = per_op("rng.words");
  out["rng.lemire_ns"] = per_op("rng.lemire_map");
}

/// core.setup_s: the median make_streaming_allocator span.
double core_setup_s(const Workload& w, SpanRecorder& spans) {
  spans.begin_job();
  for (int k = 0; k < kCoreSetupSpans; ++k) {
    const auto s = spans.scope("core.make_streaming_allocator");
    escape(w.kind == Kind::kDyn
               ? dyn::make_streaming_allocator(w.spec, w.n, 0, w.layout)
               : core::make_streaming_allocator(w.spec, w.n, w.m, w.layout));
  }
  std::vector<double> v;
  for (const std::uint64_t ns : spans.durations("core.make_streaming_allocator")) {
    v.push_back(static_cast<double>(ns) * 1e-9);
  }
  return median(v);
}

// ---------------------------------------------------------------------------
// The two modes
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;
};

/// Verify the first timed iteration by re-running it layer by layer.
void verify_first(const Workload& w, std::uint64_t seed, const Placement& first,
                  SpanRecorder& spans, CheckTally& checks) {
  if (w.kind == Kind::kShard) return;  // checked in-loop on the engine itself
  const Decomposed d = w.kind == Kind::kDyn ? decompose_dyn(w, seed, spans, checks)
                                            : decompose_sim(w, seed, spans, checks);
  checks.expect(d.place == first,
                w.name + ": decomposed replicate equals the entry point's result");
}

void run_untraced(const Workload& w, const Args& a, Values& out, CheckTally& checks,
                  SpanRecorder& spans) {
  double setup_s = setup_once(w);
  std::uint64_t setups = 1;
  for (double total = setup_s; total < kSetupBudgetS; ++setups) {
    const double t = setup_once(w);
    setup_s = std::min(setup_s, t);
    total += t;
  }
  par::ThreadPool pool(1);
  std::vector<double> rate;
  std::vector<double> cpu_rate;
  Placement first;
  double probes_per_ball = 0.0;
  const double ops = static_cast<double>(w.ops());
  Budget budget(a.seconds);
  for (std::uint64_t i = 0; budget.next(); ++i) {
    const Outcome o = run_once(w, iteration_seed(a.seed, i), pool, obs::ObsLevel::kOff, checks);
    if (i == 0) {
      first = o.place;
      probes_per_ball = o.probes_per_ball;
    }
    rate.push_back(ops / (static_cast<double>(o.wall_ns) * 1e-9));
    cpu_rate.push_back(ops / (static_cast<double>(std::max<std::uint64_t>(o.cpu_ns, 1)) * 1e-9));
  }
  out["peak_rss_mib"] = peak_rss_mib();  // before the verification replicate
  verify_first(w, iteration_seed(a.seed, 0), first, spans, checks);
  // Each timing reads the fastest of its run. On a shared host other tenants
  // slow calls in bursts, and only ever slow them, so the fast end of a run
  // tracks the program while its median tracks the neighbours.
  const auto fastest = static_cast<std::size_t>(std::max_element(rate.begin(), rate.end()) -
                                                 rate.begin());
  out["ops_per_s"] = rate[fastest];
  out["setup_s"] = setup_s;
  out["ops_per_cpu_s"] = cpu_rate[fastest];
  out["probes_per_ball"] = probes_per_ball;
  std::printf("# %llu set-ups; ops/s of %zu timed calls: p10 %.4g, median %.4g, p90 %.4g, "
              "fastest %.4g\n",
              static_cast<unsigned long long>(setups), rate.size(), quantile(rate, 0.1), median(rate),
              quantile(rate, 0.9), out["ops_per_s"]);
}

/// Core counters of one traced call (obs level counters or full).
void put_core_counters(const obs::Snapshot& s, Values& out) {
  const auto c = [&](std::string_view name) {
    return static_cast<double>(s.counter_value(name));
  };
  out["core.probe.count"] = c("core.probe.count");
  out["core.lookahead.refills"] = c("core.lookahead.refills");
  out["core.lookahead.discarded_words"] = c("core.lookahead.discarded_words");
  out["state.compact.promotions"] = c("state.compact.promotions");
  out["state.compact.demotions"] = c("state.compact.demotions");
  const double fast = c("core.batch.fast_balls");
  const double fallback = c("core.batch.fallback_balls");
  const double waves = c("core.batch.waves");
  out["core.batch.fast_balls"] = fast;
  out["core.batch.fallback_balls"] = fallback;
  out["core.batch.waves"] = waves;
  out["core.batch.fast_ratio"] = ratio(fast, fast + fallback);
  out["core.batch.fast_ratio.base"] = fast + fallback;
  out["core.batch.balls_per_wave"] = ratio(fast + fallback, waves);
}

/// Layer metrics the decomposed replicate gives. The rule's self time is
/// an estimate: the place time less the replayed state cost and the RNG
/// cost of its probes (rng.* must already be in `out`).
void put_decomposed(const Decomposed& d, double place_ns_per_ball, Values& out) {
  out["state.add_ns"] = d.state_op_ns;
  out["state.metric_read_ns"] = d.metric_read_ns;
  out["core.finalize_s"] = d.finalize_s;
  out["core.place_ns_per_ball"] = place_ns_per_ball;
  out["core.rule.self_ns_per_ball"] =
      place_ns_per_ball - d.state_op_ns -
      d.probes_per_ball * (out["rng.word_ns"] + out["rng.lemire_ns"]);
}

/// A histogram of a driver's snapshot.
const obs::LatencyHistogram& histogram_of(const obs::Snapshot& s, std::string_view name) {
  const obs::SnapshotEntry* e = s.find(name);
  if (e == nullptr) throw std::runtime_error("snapshot lacks " + std::string(name));
  return e->histogram;
}

/// Untraced and traced calls at one seed, alternating which runs first.
struct Pair {
  Outcome untraced;
  Outcome traced;

  /// Traced over untraced call time, less 1: obs.trace_overhead.
  [[nodiscard]] double overhead() const {
    return static_cast<double>(traced.call_ns) / static_cast<double>(untraced.call_ns) - 1.0;
  }
};

template <typename Traced>
Pair run_pair(const Workload& w, std::uint64_t seed, std::uint64_t i, par::ThreadPool& pool,
              CheckTally& checks, Traced&& traced) {
  Pair p;
  if (i % 2 == 0) {
    p.untraced = run_once(w, seed, pool, obs::ObsLevel::kOff, checks);
    p.traced = traced();
  } else {
    p.traced = traced();
    p.untraced = run_once(w, seed, pool, obs::ObsLevel::kOff, checks);
  }
  checks.expect(p.traced.place == p.untraced.place,
                w.name + ": traced max/min/psi equal the untraced run's");
  return p;
}

/// Driver-layer metrics of sim::run_experiment calls made at obs=counters.
struct SimDriver {
  obs::LatencyHistogram replicate_wall;
  std::vector<double> fold_s;
  std::vector<double> self_s;

  void add(const Outcome& traced) {
    const obs::LatencyHistogram& wall = histogram_of(traced.snapshot, "sim.replicate.wall_ns");
    replicate_wall.merge(wall);
    const obs::SnapshotEntry* fold = traced.snapshot.find("sim.fold.wall_ns");
    fold_s.push_back(fold != nullptr ? fold->gauge * 1e-9 : 0.0);
    self_s.push_back(static_cast<double>(traced.call_ns - wall.sum()) * 1e-9);
  }

  void put(Values& out) const {
    out["sim.replicate_s.p50"] = static_cast<double>(replicate_wall.p50()) * 1e-9;
    out["sim.replicate_s.max"] = static_cast<double>(replicate_wall.max()) * 1e-9;
    out["sim.fold_s"] = median(fold_s);
    out["sim.driver.self_s"] = median(self_s);
  }
};

Outcome traced_sim(const Workload& w, std::uint64_t seed, par::ThreadPool& pool,
                   SpanRecorder& spans, CheckTally& checks) {
  spans.begin_job();
  const auto s = spans.scope("sim.run_experiment");
  return run_sim(w, seed, pool, obs::ObsLevel::kCounters, checks);
}

void trace_sim(const Workload& w, const Args& a, Budget& budget,
               par::ThreadPool& pool, Values& out, CheckTally& checks, SpanRecorder& spans) {
  const Decomposed d = decompose_sim(w, iteration_seed(a.seed, 0), spans, checks);
  put_decomposed(d, d.place_ns_per_ball, out);
  SimDriver driver;
  std::vector<double> overhead;
  for (std::uint64_t i = 0; budget.next(); ++i) {
    const std::uint64_t seed = iteration_seed(a.seed, i);
    const Pair p = run_pair(w, seed, i, pool, checks,
                            [&] { return traced_sim(w, seed, pool, spans, checks); });
    if (i == 0) {
      checks.expect(d.place == p.untraced.place,
                    w.name + ": decomposed replicate equals run_experiment's result");
      put_core_counters(p.traced.snapshot, out);
    }
    overhead.push_back(p.overhead());
    driver.add(p.traced);
  }
  driver.put(out);
  out["obs.trace_overhead"] = median(overhead);
}

void trace_dyn(const Workload& w, const Args& a, Budget& budget,
               par::ThreadPool& pool, Values& out, CheckTally& checks, SpanRecorder& spans) {
  const Decomposed d = decompose_dyn(w, iteration_seed(a.seed, 0), spans, checks);
  obs::LatencyHistogram place;
  obs::LatencyHistogram remove;
  obs::LatencyHistogram replicate_wall;
  std::vector<double> overhead;
  std::vector<double> loop_self;
  std::vector<double> driver_self;
  double dropped = 0.0;
  for (std::uint64_t i = 0; budget.next(); ++i) {
    const std::uint64_t seed = iteration_seed(a.seed, i);
    const Pair p = run_pair(w, seed, i, pool, checks, [&] {
      spans.begin_job();
      const auto s = spans.scope("dyn.run_dynamic");
      return run_dyn(w, seed, pool, obs::ObsLevel::kFull, checks);
    });
    if (i == 0) {
      checks.expect(d.place == p.untraced.place,
                    w.name + ": mirrored event loop equals run_dynamic's final state");
      put_core_counters(p.traced.snapshot, out);
    }
    const obs::LatencyHistogram& pl = histogram_of(p.traced.snapshot, "dyn.event.place_latency_ns");
    const obs::LatencyHistogram& rm = histogram_of(p.traced.snapshot, "dyn.event.remove_latency_ns");
    const obs::LatencyHistogram& wall = histogram_of(p.traced.snapshot, "dyn.replicate.wall_ns");
    place.merge(pl);
    remove.merge(rm);
    replicate_wall.merge(wall);
    loop_self.push_back(
        (static_cast<double>(wall.sum()) - static_cast<double>(pl.sum() + rm.sum())) /
        static_cast<double>(w.ops()));
    driver_self.push_back(static_cast<double>(p.traced.call_ns - wall.sum()) * 1e-9);
    overhead.push_back(p.overhead());
    dropped += static_cast<double>(p.traced.dropped_departures);
  }
  // The dyn engine places one ball per call: its place-latency histogram
  // is this workload's place span.
  put_decomposed(d, place.mean(), out);
  out["dyn.place_ns.p50"] = static_cast<double>(place.p50());
  out["dyn.place_ns.p99"] = static_cast<double>(place.p99());
  out["dyn.remove_ns.p50"] = static_cast<double>(remove.p50());
  out["dyn.remove_ns.p99"] = static_cast<double>(remove.p99());
  out["dyn.loop.self_ns_per_event"] = median(loop_self);
  out["dyn.dropped_departures"] = dropped;
  // dyn::run_dynamic is this workload's driver: its replicate wall and
  // self time fill the driver rows (it has no separately timed fold).
  out["sim.replicate_s.p50"] = static_cast<double>(replicate_wall.p50()) * 1e-9;
  out["sim.replicate_s.max"] = static_cast<double>(replicate_wall.max()) * 1e-9;
  out["sim.driver.self_s"] = median(driver_self);
  out["obs.trace_overhead"] = median(overhead);
}

void trace_shard(const Workload& w, const Args& a, Budget& budget,
                 par::ThreadPool& pool, Values& out, CheckTally& checks, SpanRecorder& spans) {
  const Workload twin = sequential_twin(w);
  const Decomposed d = decompose_sim(twin, iteration_seed(a.seed, 0), spans, checks);
  put_decomposed(d, d.place_ns_per_ball, out);
  SimDriver driver;
  std::vector<double> overhead;
  std::vector<double> speedup;
  std::vector<double> run_s;
  for (std::uint64_t i = 0; budget.next(); ++i) {
    const std::uint64_t seed = iteration_seed(a.seed, i);
    const Pair p = run_pair(w, seed, i, pool, checks, [&] {
      spans.begin_job();
      const auto s = spans.scope("shard.ShardedAllocator");
      return run_shard(w, seed, checks, &spans);
    });
    const Outcome seq = traced_sim(twin, seed, pool, spans, checks);
    if (i == 0) {
      checks.expect(d.place == seq.place,
                    twin.name + ": decomposed greedy[2] twin equals run_experiment's result");
      put_core_counters(seq.snapshot, out);
      const shard::ShardCounters& c = p.traced.shard;
      out["shard.sync_rounds"] = static_cast<double>(p.traced.sync_rounds);
      out["shard.ring.highwater"] = static_cast<double>(c.ring_highwater);
      out["shard.messages_per_ball"] =
          ratio(static_cast<double>(c.messages), static_cast<double>(c.balls));
      out["shard.messages_per_ball.base"] = static_cast<double>(c.balls);
      out["shard.cross_shard_ratio"] =
          ratio(static_cast<double>(c.cross_shard_probes), static_cast<double>(c.probes));
      out["shard.cross_shard_ratio.base"] = static_cast<double>(c.probes);
      out["shard.deferred_ratio"] =
          ratio(static_cast<double>(c.deferred_balls), static_cast<double>(c.balls));
      out["shard.deferred_ratio.base"] = static_cast<double>(c.balls);
    }
    driver.add(seq);
    run_s.push_back(static_cast<double>(spans.durations("shard.run").back()) * 1e-9);
    speedup.push_back(static_cast<double>(seq.call_ns) /
                      static_cast<double>(p.untraced.call_ns));
    overhead.push_back(p.overhead());
  }
  driver.put(out);
  out["shard.run_s"] = median(run_s);
  out["shard.speedup_vs_seq"] = median(speedup);
  out["obs.trace_overhead"] = median(overhead);
}

void run_traced(const Workload& w, const Args& a, Values& out, CheckTally& checks,
                SpanRecorder& spans) {
  measure_rng(w.n, a.seed, spans, out);
  out["core.setup_s"] = core_setup_s(w.kind == Kind::kShard ? sequential_twin(w) : w, spans);
  par::ThreadPool pool(1);
  Budget budget(a.seconds);
  switch (w.kind) {
    case Kind::kSim:
      trace_sim(w, a, budget, pool, out, checks, spans);
      break;
    case Kind::kDyn:
      trace_dyn(w, a, budget, pool, out, checks, spans);
      break;
    case Kind::kShard:
      trace_shard(w, a, budget, pool, out, checks, spans);
      break;
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <std::size_t N>
void print_result(const MetricDef (&defs)[N], const Values& values, const CheckTally& checks) {
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    // A layer a workload does not run reads 0 (see README.md).
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%-34s %-22s %s\n", defs[i].name, number(v).c_str(), defs[i].unit);
    json += (i == 0 ? "\"" : ", \"") + std::string(defs[i].name) + "\": {\"value\": " +
            number(v) + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("# fail_ratio = %llu / %llu\n", static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  for (const std::string& f : checks.failures) std::printf("# FAILED: %s\n", f.c_str());
  std::printf("%s\n", json.c_str());
}

void print_machine() {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf("# machine: nproc=%u l2=%ldKiB l3=%ldKiB simd=%s compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), l2 / 1024, l3 / 1024,
              std::string(core::simd::to_string(core::simd::active_simd_tier())).c_str(),
              compiler, PERFBENCH_BUILD_TYPE);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (key != "--tiny") {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
      value = argv[++i];
    }
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--tiny") {
      a.tiny = true;
    } else if (key == "--spans") {
      a.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing a '%s' build; timings need -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  Args a;
  Workload w;
  try {
    a = parse_args(argc, argv);
    w = make_workload(a.workload, a.tiny);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny] [--spans <path>]\n",
                 e.what());
    return 2;
  }
  try {
    print_machine();
    std::printf("# workload %s: %s n=%u m=%llu layout=%s trace=%d seed=%llu\n", w.name.c_str(),
                w.spec.c_str(), w.n, static_cast<unsigned long long>(w.m),
                std::string(core::to_string(w.layout)).c_str(), a.trace ? 1 : 0,
                static_cast<unsigned long long>(a.seed));
    std::fflush(stdout);
    Values values;
    CheckTally checks;
    SpanRecorder spans;
    if (a.trace) {
      run_traced(w, a, values, checks, spans);
    } else {
      run_untraced(w, a, values, checks, spans);
      values["pass_ratio"] = static_cast<double>(checks.attempted - checks.failed) /
                             static_cast<double>(checks.attempted);
    }
    if (!a.spans_path.empty() && !spans.write_json(a.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", a.spans_path.c_str());
      return 1;
    }
    if (a.trace) {
      print_result(kPerLayer, values, checks);
    } else {
      print_result(kEndToEnd, values, checks);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", w.name.c_str(), e.what());
    return 1;
  }
  return 0;
}
