/// The cross-path equivalence matrix: every execution path that promises
/// the streaming core's placements runs every registry spec and must agree
/// bit for bit with one reference, the dyn engine's call pattern: a plain
/// place() stream on a wide make_streaming_allocator(spec, n, m) state,
/// drawing from a shared engine, then finalize() (a no-op but for
/// self-balancing's sweeps, which every batch form runs).
///
/// A cell compares per-ball bins where the path exposes them; loads,
/// balls, probes, total_placed, reallocations, rounds and completed; max,
/// min, Psi, lnPhi and level_counts(); and the final engine state between
/// rows that read the engine ahead the same way. Every row also runs under
/// the `shards[1]:` name prefix. The sim runner is the last row, at every
/// obs level on both layouts, and the only one for batched[c]'s LW rounds
/// and `shards[t]:` with t >= 2, which have no place-loop reference.
///
/// A new execution path is one row in kPaths; a new registry family is one
/// entry in kSpecs (EveryRegistryTemplateHasAnEntry fails without it).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "bbb/core/batch_kernel.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/core/simd/batch_ops.hpp"
#include "bbb/par/thread_pool.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/sim/runner.hpp"

namespace bbb {
namespace {

using core::StateLayout;

enum Trait : unsigned {
  /// Also the kernel shapes: n = 2^20, every SIMD tier, the large sim shape.
  kDeep = 1,
  /// A bare batched[c]: Protocol::run and the sim runner run LW rounds, so
  /// the Protocol::run row is skipped and its sim records meet each other
  /// only; the streaming form still runs every other row.
  kLwRounds = 2,
  /// shards[t >= 2]: the sharded engine has no streaming allocator.
  kEngine = 4,
  /// Past its capacity an insertion fails into cuckoo's stash, alike on
  /// every path: the small grid shapes still run there.
  kOverflowFails = 8,
  kNotBatchEquivalent = 16,  ///< the rule's batch_equivalent() is false
};

struct SpecEntry {
  const char* tmpl;  ///< the core::protocol_specs() template it instantiates
  const char* spec;
  std::uint32_t min_n;     ///< smallest n the spec accepts
  std::uint32_t capacity;  ///< m <= capacity * n keeps placement possible; 0: no bound
  unsigned traits;
};

/// ctest names each matrix cell after its spec.
void PrintTo(const SpecEntry& entry, std::ostream* os) { *os << entry.spec; }

// One or more concrete instances per protocol_specs() template.
const SpecEntry kSpecs[] = {
    {"one-choice", "one-choice", 1, 0, kDeep},
    {"greedy[d]", "greedy[2]", 1, 0, kDeep},
    {"greedy[d]", "greedy[3]", 1, 0, kDeep},
    {"greedy[d]", "greedy[5]", 1, 0, 0},
    {"left[d]", "left[2]", 2, 0, kDeep},
    {"left[d]", "left[4]", 4, 0, 0},
    {"memory[d,k]", "memory[1,1]", 1, 0, 0},
    {"memory[d,k]", "memory[2,1]", 1, 0, 0},
    {"memory[d,k]", "memory[2,2]", 1, 0, 0},
    {"threshold", "threshold", 1, 0, 0},
    {"threshold[slack]", "threshold[0]", 1, 0, 0},
    {"threshold[slack]", "threshold[1]", 1, 0, 0},
    {"threshold[slack]", "threshold[2]", 1, 0, 0},
    {"doubling-threshold[guess]", "doubling-threshold", 1, 0, 0},
    {"doubling-threshold[guess]", "doubling-threshold[0]", 1, 0, 0},
    {"doubling-threshold[guess]", "doubling-threshold[4]", 1, 0, 0},
    {"doubling-threshold[guess]", "doubling-threshold[7]", 1, 0, 0},
    {"adaptive", "adaptive", 1, 0, 0},
    {"adaptive[slack]", "adaptive[0]", 1, 0, 0},
    {"adaptive[slack]", "adaptive[1]", 1, 0, 0},
    {"adaptive[slack]", "adaptive[2]", 1, 0, 0},
    {"adaptive-net", "adaptive-net", 1, 0, 0},
    {"adaptive-net[slack]", "adaptive-net[1]", 1, 0, 0},
    {"adaptive-net[slack]", "adaptive-net[2]", 1, 0, 0},
    {"adaptive-total", "adaptive-total", 1, 0, 0},
    {"adaptive-total[slack]", "adaptive-total[1]", 1, 0, 0},
    {"adaptive-total[slack]", "adaptive-total[2]", 1, 0, 0},
    {"stale-adaptive[delta]", "stale-adaptive[1]", 1, 0, 0},
    {"stale-adaptive[delta]", "stale-adaptive[3]", 3, 0, 0},
    {"stale-adaptive[delta]", "stale-adaptive[4]", 4, 0, 0},
    {"stale-adaptive[delta]", "stale-adaptive[8]", 8, 0, 0},
    {"skewed-adaptive[s*100]", "skewed-adaptive[0]", 1, 0, 0},
    {"skewed-adaptive[s*100]", "skewed-adaptive[50]", 1, 0, 0},
    {"skewed-adaptive[s*100]", "skewed-adaptive[75]", 1, 0, 0},
    {"batched[capacity]", "batched[2]", 1, 2, kLwRounds | kNotBatchEquivalent},
    {"batched[capacity]", "batched[16]", 1, 16, kLwRounds | kNotBatchEquivalent},
    {"batched[capacity]", "batched[64]", 1, 64, kLwRounds | kNotBatchEquivalent},
    {"self-balancing", "self-balancing", 1, 0, kNotBatchEquivalent},
    {"cuckoo[d,k]", "cuckoo[2,4]", 2, 4, kOverflowFails},
    {"cuckoo[d,k]", "cuckoo[3,2]", 3, 2, kOverflowFails},
    {"cuckoo[d,k]", "cuckoo[2,16]", 2, 16, kOverflowFails},
    {"capacities=c0,c1,...:spec", "capacities=1,2:greedy[2]", 1, 0, 0},
    // batched[c] ignores capacities: c balls fit every bin.
    {"capacities=c0,c1,...:spec", "capacities=1:batched[2]", 1, 2, kNotBatchEquivalent},
    {"capacities=c0,c1,...:spec", "capacities=1,2:batched[2]", 1, 2, kNotBatchEquivalent},
    {"shards[t]:spec", "shards[1]:adaptive", 1, 0, 0},
    {"shards[t]:spec", "shards[2]:greedy[2]", 2, 0, kEngine},
    {"shards[t]:spec", "shards[4]:greedy[2]", 4, 0, kEngine | kDeep},
};

/// Distinct spellings of one process: the adaptive clocks coincide while
/// no ball departs, a slack of 1 is the default, a doubling guess of 0
/// means n, and `shards[1]:` and a uniform `capacities=` profile both
/// select batched[c]'s streaming form. The first entry sets the shapes.
const std::pair<const char*, const char*> kAliases[] = {
    {"adaptive", "adaptive-net"},
    {"adaptive", "adaptive-total"},
    {"adaptive", "adaptive[1]"},
    {"adaptive-net", "adaptive-net[1]"},
    {"adaptive-total", "adaptive-total[1]"},
    {"threshold", "threshold[1]"},
    {"doubling-threshold", "doubling-threshold[0]"},
    {"capacities=1:batched[2]", "shards[1]:batched[2]"},
};

/// The spec itself, and `shards[1]:` on it unless it carries a prefix.
std::vector<std::string> spellings(const SpecEntry& entry) {
  const std::string spec = entry.spec;
  if (spec.find(':') != std::string::npos) return {spec};
  return {spec, "shards[1]:" + spec};
}

struct Shape {
  std::uint64_t m;
  std::uint32_t n;
  std::uint64_t seed;
  /// Draw from rng::SeedSequence(seed).engine(0), the sim runner's
  /// replicate 0, instead of rng::Engine(seed).
  bool replicate = false;
  bool deep = false;  ///< kDeep entries only
  bool grid = false;  ///< kOverflowFails entries run it past capacity
  bool compact_only = false;  ///< the wide rows add nothing the kernel shapes test

  [[nodiscard]] rng::Engine engine() const {
    return replicate ? rng::SeedSequence(seed).engine(0) : rng::Engine(seed);
  }
  [[nodiscard]] std::string label() const {
    return " m=" + std::to_string(m) + " n=" + std::to_string(n) + " seed=" +
           std::to_string(seed) + (replicate ? "/replicate 0" : "");
  }
};

bool past_capacity(const SpecEntry& entry, const Shape& shape) {
  return entry.capacity != 0 && shape.m > std::uint64_t{entry.capacity} * shape.n;
}

bool runs_at(const SpecEntry& entry, const Shape& shape) {
  if (shape.n < entry.min_n || (shape.deep && (entry.traits & kDeep) == 0)) return false;
  return !past_capacity(entry, shape) ||
         (shape.grid && (entry.traits & kOverflowFails) != 0);
}

std::vector<Shape> placement_shapes() {
  std::vector<Shape> shapes;
  // The streaming-vs-batch grid.
  for (const auto& [m, n] :
       {std::pair<std::uint64_t, std::uint32_t>{1, 1}, {7, 3}, {100, 10}, {257, 64},
        {1000, 33}}) {
    for (const std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
      shapes.push_back({.m = m, .n = n, .seed = seed, .grid = true});
    }
  }
  // The golden pin shape, and the cuckoo pin's m = 30 that fits 40 slots.
  shapes.push_back({.m = 100, .n = 10, .seed = 42});
  shapes.push_back({.m = 30, .n = 10, .seed = 42});
  shapes.push_back({.m = 512, .n = 64, .seed = 7777});
  shapes.push_back({.m = 2000, .n = 128, .seed = 31337});
  shapes.push_back({.m = 700, .n = 512, .seed = 99});  // one chunk-pattern cycle
  shapes.push_back({.m = 4096, .n = 512, .seed = 42, .replicate = true});
  shapes.push_back({.m = 8192, .n = 512, .seed = 7, .replicate = true});
  shapes.push_back({.m = 10000, .n = 1024, .seed = 42, .replicate = true});
  // A wave is 256 words: 128 two-probe or 256 one-probe balls. Every size
  // up to one wave, then both boundaries and a multi-wave run, where small
  // n forces dense in-wave duplicates.
  for (std::uint64_t m = 1; m <= 64; ++m) {
    shapes.push_back({.m = m, .n = 97, .seed = 1000 + m});
  }
  for (const std::uint32_t n : {2U, 5U, 64U, 4096U}) {
    for (const std::uint64_t m : {127, 128, 129, 255, 256, 257, 1000}) {
      shapes.push_back({.m = m, .n = n, .seed = 7 * n + m});
    }
  }
  // Every lane through the 255 -> 256 side-table promotion.
  shapes.push_back({.m = 8 * 300, .n = 8, .seed = 11});
  shapes.push_back({.m = 64 * 260, .n = 64, .seed = 13});
  // A power-of-two n never rejects a Lemire draw: all balls take the wave.
  shapes.push_back(
      {.m = 20000, .n = 1U << 20, .seed = 3, .deep = true, .compact_only = true});
  for (const std::uint64_t seed : {17, 18, 19}) {
    shapes.push_back({.m = 5000, .n = 1U << 14, .seed = seed, .deep = true});
  }
  return shapes;
}

struct Outcome {
  std::vector<std::uint32_t> bins;  ///< per ball; empty where not exposed
  std::vector<std::uint32_t> loads;
  std::uint64_t balls = 0, probes = 0, reallocations = 0, rounds = 0;
  bool completed = true;
  bool has_state = false;  ///< Protocol::run exposes the result only
  std::uint64_t total_placed = 0;
  std::uint32_t max_load = 0, min_load = 0;
  double psi = 0, log_phi = 0;
  std::vector<std::uint32_t> levels;
  bool lookahead = false;  ///< the rule has a probe lookahead
  bool waves = false;      ///< the wave kernel ran
  rng::Engine engine{0};
};

Outcome read(const core::PlacementRule& rule, const core::BinState& state,
             const rng::Engine& gen, std::vector<std::uint32_t> bins = {}) {
  const core::BatchPlacer* kernel = rule.batch_kernel();
  return {std::move(bins),     state.copy_loads(),   state.balls(),
          rule.probes(),       rule.reallocations(), rule.rounds(),
          rule.completed(),    true,                 rule.total_placed(),
          state.max_load(),    state.min_load(),     state.psi(),
          state.log_phi(),     state.level_counts(), rule.lookahead() != nullptr,
          kernel != nullptr && kernel->batches() > 0, gen};
}

/// First index where two vectors differ, -1 if they are equal: a failure
/// names one bin or ball instead of printing 2^20 of them.
std::int64_t diff_at(const std::vector<std::uint32_t>& a,
                     const std::vector<std::uint32_t>& b) {
  const auto mis = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  return mis.first == a.end() && mis.second == b.end() ? -1 : mis.first - a.begin();
}

void expect_same(const Outcome& want, const Outcome& got) {
  if (!got.bins.empty()) {
    EXPECT_EQ(diff_at(want.bins, got.bins), -1) << "bins";
  }
  EXPECT_EQ(diff_at(want.loads, got.loads), -1) << "loads";
  EXPECT_EQ(
      std::tie(want.balls, want.probes, want.reallocations, want.rounds, want.completed),
      std::tie(got.balls, got.probes, got.reallocations, got.rounds, got.completed));
  if (!got.has_state) return;
  EXPECT_EQ(std::tie(want.total_placed, want.max_load, want.min_load, want.psi,
                     want.log_phi),
            std::tie(got.total_placed, got.max_load, got.min_load, got.psi, got.log_phi));
  EXPECT_EQ(diff_at(want.levels, got.levels), -1) << "level counts";
}

/// How a row drives the balls in. Every call but kShared promises engine
/// exclusivity, and every one ends with finalize().
enum class Call : std::uint8_t {
  kShared,      ///< place() on a shared engine: the reference
  kPlace,       ///< place(): the probe lookahead
  kBatch,       ///< one place_batch call: the wave kernel
  kInterleave,  ///< place_one and place_batch alternating in kChunks
  kRunRule,     ///< core::run_rule, the batch adapter
  kProtocol,    ///< core::make_protocol(spec)->run
};

/// 1 is a place_one call, anything else one place_batch call; 130, 200
/// and 300 cross wave boundaries.
constexpr std::uint64_t kChunks[] = {1, 130, 1, 1, 64, 3, 200, 300};

Outcome drive(const std::string& spec, const Shape& shape, rng::Engine gen,
              StateLayout layout, Call call) {
  const std::uint64_t m = shape.m;
  if (call == Call::kProtocol) {
    const core::AllocationResult r = core::make_protocol(spec)->run(m, shape.n, gen);
    Outcome out;
    std::tie(out.loads, out.balls, out.probes, out.reallocations, out.rounds,
             out.completed) =
        std::tie(r.loads, r.balls, r.probes, r.reallocations, r.rounds, r.completed);
    out.engine = gen;
    return out;
  }
  const auto alloc = core::make_streaming_allocator(spec, shape.n, m, layout);
  if (call == Call::kRunRule) {
    const std::vector<std::uint32_t> loads = core::run_rule(*alloc, m, gen).loads;
    EXPECT_EQ(loads, alloc->state().copy_loads());
    return read(alloc->rule(), alloc->state(), gen);
  }
  // StreamingAllocator::place() is place_one on the allocator's state; the
  // rule places into a copy of that empty state so place_batch can hand
  // the bins back.
  core::BinState state = alloc->state();
  core::PlacementRule& rule = alloc->rule();
  rule.set_engine_exclusive(call != Call::kShared);
  std::vector<std::uint32_t> bins(m);
  for (std::uint64_t done = 0, k = 0; done < m; ++k) {
    const std::uint64_t chunk =
        call == Call::kBatch        ? m
        : call == Call::kInterleave ? std::min(kChunks[k % std::size(kChunks)], m - done)
                                    : 1;
    if (call != Call::kBatch && chunk == 1) {
      bins[done] = rule.place_one(state, gen);
    } else {
      rule.place_batch(state, chunk, gen, bins.data() + done);
    }
    done += chunk;
  }
  rule.finalize(state, gen);
  return read(rule, state, gen, std::move(bins));
}

Outcome reference(const std::string& spec, const Shape& shape, rng::Engine gen) {
  return drive(spec, shape, gen, StateLayout::kWide, Call::kShared);
}

/// How a row reads the engine ahead, which sets where the engine ends.
/// Lookahead rows end together, where the reference ends if the rule has
/// no lookahead. The wave kernel reads whole waves past that, so a row
/// where it ran ends with the rows of its own call pattern.
enum ReadAhead : std::uint8_t { kLookahead, kWaves, kInterleavedWaves };

struct Path {
  const char* name;
  StateLayout layout;
  Call call;
  ReadAhead reads;
  /// Swept over every SIMD tier up to simd::detected_simd_tier() when the
  /// wave kernel runs.
  bool tiers;
  /// Also past the spec's capacity, where every failed insertion burns the
  /// whole kick budget: the rows the streaming-vs-batch grid pinned there.
  bool overflow;
};

const Path kPaths[] = {
    {"place", StateLayout::kWide, Call::kPlace, kLookahead, false, true},
    {"place", StateLayout::kCompact, Call::kPlace, kLookahead, false, false},
    {"place_batch", StateLayout::kWide, Call::kBatch, kLookahead, false, false},
    {"place_batch", StateLayout::kCompact, Call::kBatch, kWaves, true, false},
    {"interleaved", StateLayout::kWide, Call::kInterleave, kLookahead, false, false},
    {"interleaved", StateLayout::kCompact, Call::kInterleave, kInterleavedWaves, true,
     false},
    {"run_rule", StateLayout::kWide, Call::kRunRule, kLookahead, false, false},
    {"run_rule", StateLayout::kCompact, Call::kRunRule, kWaves, false, false},
    {"Protocol::run", StateLayout::kWide, Call::kProtocol, kLookahead, false, true},
};

class PathMatrixPlacement : public ::testing::TestWithParam<SpecEntry> {};

TEST_P(PathMatrixPlacement, EveryPathMatchesTheReference) {
  const SpecEntry& entry = GetParam();
  const auto top = static_cast<int>(core::simd::detected_simd_tier());
  for (const Shape& shape : placement_shapes()) {
    if (!runs_at(entry, shape)) continue;
    const bool overflow = past_capacity(entry, shape);
    const Outcome ref = reference(entry.spec, shape, shape.engine());
    for (const std::string& spec : spellings(entry)) {
      if (spec != entry.spec) {
        SCOPED_TRACE(spec + shape.label() + ": place");
        const Outcome got = reference(spec, shape, shape.engine());
        expect_same(ref, got);
        EXPECT_TRUE(got.engine == ref.engine);
      }
      std::array<std::optional<rng::Engine>, 3> anchors;
      for (const Path& path : kPaths) {
        if ((overflow && !path.overflow) ||
            (shape.compact_only && path.layout == StateLayout::kWide) ||
            (path.call == Call::kProtocol && (entry.traits & kLwRounds) != 0 &&
             spec == entry.spec)) {
          continue;
        }
        for (int tier = 0; tier <= (path.tiers ? top : 0); ++tier) {
          std::string label = spec + shape.label() + ": " + path.name + " ";
          label += core::to_string(path.layout);
          if (path.tiers) {
            const auto t = static_cast<core::simd::SimdTier>(tier);
            core::simd::set_simd_tier_override(t);
            label += ' ';
            label += core::simd::to_string(t);
          }
          SCOPED_TRACE(label);
          const Outcome got = drive(spec, shape, shape.engine(), path.layout, path.call);
          core::simd::clear_simd_tier_override();
          expect_same(ref, got);
          auto& anchor = anchors[got.waves ? path.reads : kLookahead];
          if (!anchor) anchor = got.engine;
          EXPECT_TRUE(got.engine == *anchor);
          if (!got.waves) break;  // the tier picks the wave backend only
        }
      }
      // Only a probe lookahead may move the engine's final position.
      if (!ref.lookahead) {
        EXPECT_TRUE(*anchors[kLookahead] == ref.engine) << spec << shape.label();
      }
    }
  }
}

std::vector<SpecEntry> streaming_entries() {
  std::vector<SpecEntry> out;
  std::copy_if(std::begin(kSpecs), std::end(kSpecs), std::back_inserter(out),
               [](const SpecEntry& e) { return (e.traits & kEngine) == 0; });
  return out;
}

INSTANTIATE_TEST_SUITE_P(Registry, PathMatrixPlacement,
                         ::testing::ValuesIn(streaming_entries()));

// -- The sim runner row ------------------------------------------------------

const Shape kSimShapes[] = {
    {.m = 0, .n = 1000, .seed = 7},     {.m = 1500, .n = 1000, .seed = 7},
    {.m = 10000, .n = 1000, .seed = 7}, {.m = 0, .n = 1000, .seed = 11},
    {.m = 1500, .n = 1000, .seed = 11}, {.m = 4096, .n = 512, .seed = 42},
    {.m = 20000, .n = 2048, .seed = 42, .deep = true},
};

/// Replicates per sim run: 3 at the large shape, else 2.
std::uint32_t replicates(const Shape& shape) { return shape.deep ? 3 : 2; }

/// run_experiment at each (layout, obs level), layout-major: wide/off first.
std::vector<sim::RunSummary> sim_runs(const std::string& spec, const Shape& shape) {
  static par::ThreadPool pool(2);
  std::vector<sim::RunSummary> runs;
  for (const StateLayout layout : {StateLayout::kWide, StateLayout::kCompact}) {
    for (const obs::ObsLevel level :
         {obs::ObsLevel::kOff, obs::ObsLevel::kCounters, obs::ObsLevel::kFull}) {
      sim::ExperimentConfig cfg;
      cfg.protocol_spec = spec;
      cfg.m = shape.m;
      cfg.n = shape.n;
      cfg.replicates = replicates(shape);
      cfg.seed = shape.seed;
      cfg.layout = layout;
      cfg.obs.level = level;
      runs.push_back(sim::run_experiment(cfg, pool));
    }
  }
  return runs;
}

/// Every field of a record but the counters, which depend on the obs
/// level, and wall_ns and shard_phases, which are timings.
auto results(const sim::ReplicateRecord& r) {
  return std::tie(r.probes, r.max_load, r.min_load, r.gap, r.psi, r.log_phi,
                  r.reallocations, r.rounds, r.completed, r.load_histogram);
}

sim::ReplicateRecord as_record(const Outcome& o) {
  sim::ReplicateRecord rec;
  rec.probes = static_cast<double>(o.probes);
  rec.max_load = o.max_load;
  rec.min_load = o.min_load;
  rec.gap = o.max_load - o.min_load;
  rec.psi = o.psi;
  rec.log_phi = o.log_phi;
  rec.reallocations = static_cast<double>(o.reallocations);
  rec.rounds = static_cast<double>(o.rounds);
  rec.completed = o.completed;
  for (std::uint32_t l = 0; l <= o.max_load; ++l) {
    if (o.levels[l] > 0) rec.load_histogram.add(l, o.levels[l]);
  }
  return rec;
}

/// What one run owes on its own, by obs level.
void expect_well_formed(const sim::RunSummary& run, std::uint64_t m, bool engine) {
  const std::uint64_t reps = run.records.size();
  if (run.config.obs.level == obs::ObsLevel::kOff) {
    EXPECT_TRUE(run.obs.empty());
    for (const sim::ReplicateRecord& rec : run.records) {
      EXPECT_EQ(rec.wall_ns, 0U);
      EXPECT_EQ(rec.counters, obs::CoreCounters{});
      EXPECT_EQ(rec.shard_counters, shard::ShardCounters{});
    }
    return;
  }
  for (const sim::ReplicateRecord& rec : run.records) EXPECT_GT(rec.wall_ns, 0U);
  const obs::SnapshotEntry* wall = run.obs.find("sim.replicate.wall_ns");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->histogram.count(), reps);
  // The per-protocol cost accounting the paper's claims rest on.
  if (run.failures == 0) {
    EXPECT_EQ(run.obs.counter_value("core.ball.placed"), m * reps);
  }
  if (m > 0) {
    EXPECT_GT(run.obs.counter_value("core.probe.count"), 0U);
  }
  if (!engine) {
    EXPECT_EQ(run.obs.find("shard.message.count"), nullptr);
  }
}

class PathMatrixSim : public ::testing::TestWithParam<SpecEntry> {};

TEST_P(PathMatrixSim, RecordsMatchAcrossLayoutsAndObsLevels) {
  const SpecEntry& entry = GetParam();
  for (const Shape& shape : kSimShapes) {
    if (!runs_at(entry, shape)) continue;
    std::vector<sim::RunSummary> bare;
    for (const std::string& spec : spellings(entry)) {
      SCOPED_TRACE(spec + shape.label());
      const std::vector<sim::RunSummary> runs = sim_runs(spec, shape);
      const bool renamed = spec != entry.spec;
      for (std::size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE(std::string(core::to_string(runs[i].config.layout)) + " obs=" +
                     std::string(obs::to_string(runs[i].config.obs.level)));
        ASSERT_EQ(runs[i].records.size(), replicates(shape));
        expect_well_formed(runs[i], shape.m, (entry.traits & kEngine) != 0);
        // full against counters at the same layout; counters against itself.
        const sim::RunSummary& twin = runs[i % 3 == 2 ? i - 1 : i];
        for (std::size_t r = 0; r < runs[i].records.size(); ++r) {
          const sim::ReplicateRecord& rec = runs[i].records[r];
          EXPECT_EQ(results(runs[0].records[r]), results(rec)) << "replicate " << r;
          EXPECT_EQ(twin.records[r].counters, rec.counters);
          EXPECT_EQ(twin.records[r].shard_counters, rec.shard_counters);
          // shards[1]: is a name: the bare record, counters included.
          if (renamed && (entry.traits & kLwRounds) == 0) {
            EXPECT_EQ(results(bare[i].records[r]), results(rec));
            EXPECT_EQ(bare[i].records[r].counters, rec.counters);
          }
        }
        if (renamed) {
          EXPECT_EQ(runs[i].protocol_name, "shards[1]:" + bare[i].protocol_name);
        }
      }
      // A streaming form's replicate r is the reference on engine r.
      const bool streams = (entry.traits & kEngine) == 0 &&
                           ((entry.traits & kLwRounds) == 0 || renamed);
      for (std::uint32_t r = 0; streams && r < replicates(shape); ++r) {
        const rng::Engine gen = rng::SeedSequence(shape.seed).engine(r);
        EXPECT_EQ(results(as_record(reference(entry.spec, shape, gen))),
                  results(runs[0].records[r]))
            << "reference, replicate " << r;
      }
      if (!renamed) bare = runs;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, PathMatrixSim, ::testing::ValuesIn(kSpecs));

// -- The tables themselves ---------------------------------------------------

TEST(PathMatrixTable, EveryRegistryTemplateHasAnEntry) {
  const std::vector<std::string> templates = core::protocol_specs();
  for (const std::string& tmpl : templates) {
    EXPECT_TRUE(std::any_of(std::begin(kSpecs), std::end(kSpecs),
                            [&](const SpecEntry& e) { return tmpl == e.tmpl; }))
        << "registry template '" << tmpl << "' has no matrix entry";
  }
  for (const SpecEntry& entry : kSpecs) {
    SCOPED_TRACE(entry.spec);
    EXPECT_NE(std::find(templates.begin(), templates.end(), entry.tmpl), templates.end());
    const std::uint32_t n = std::max(entry.min_n, 8U);
    if ((entry.traits & kEngine) != 0) {
      // No streaming allocator: why the sim row is its only path.
      EXPECT_THROW((void)core::make_streaming_allocator(entry.spec, n),
                   std::invalid_argument);
      continue;
    }
    EXPECT_EQ(core::make_streaming_allocator(entry.spec, n)->rule().batch_equivalent(),
              (entry.traits & kNotBatchEquivalent) == 0);
    EXPECT_THROW((void)core::make_streaming_allocator(entry.spec, entry.min_n - 1),
                 std::invalid_argument);
  }
}

TEST(PathMatrixTable, AliasSpellingsPlaceIdentically) {
  for (const auto& [a, b] : kAliases) {
    const SpecEntry& entry = *std::find_if(
        std::begin(kSpecs), std::end(kSpecs),
        [a = std::string(a)](const SpecEntry& e) { return a == e.spec; });
    for (const Shape& shape : placement_shapes()) {
      if (!runs_at(entry, shape)) continue;
      SCOPED_TRACE(std::string(a) + " vs " + b + shape.label());
      const Outcome want = reference(a, shape, shape.engine());
      const Outcome got = reference(b, shape, shape.engine());
      expect_same(want, got);
      EXPECT_TRUE(got.engine == want.engine);
    }
    for (const Shape& shape : kSimShapes) {
      if (!runs_at(entry, shape)) continue;
      SCOPED_TRACE(std::string(a) + " vs " + b + " sim" + shape.label());
      const std::vector<sim::RunSummary> want = sim_runs(a, shape);
      const std::vector<sim::RunSummary> got = sim_runs(b, shape);
      for (std::size_t i = 0; i < want.size(); ++i) {
        for (std::size_t r = 0; r < want[i].records.size(); ++r) {
          EXPECT_EQ(results(want[i].records[r]), results(got[i].records[r]));
          EXPECT_EQ(want[i].records[r].counters, got[i].records[r].counters);
        }
      }
    }
  }
}

}  // namespace
}  // namespace bbb
