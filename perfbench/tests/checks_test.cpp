// Each output check of perfbench must pass on a real result and fire on a
// deliberately corrupted copy of it. Results come from small runs of the
// same public entry points the benchmark drives.

#include <cstdio>
#include <string>
#include <vector>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/dyn/engine.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/shard/engine.hpp"
#include "bbb/sim/runner.hpp"
#include "checks.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

// A check that holds on the real result and fails on the corrupted one.
void expect_fires(bool on_real, bool on_corrupt, const std::string& check) {
  expect(on_real, check + " holds on the real result");
  expect(!on_corrupt, check + " fires on the corrupted result");
}

void theorem31_and_levels() {
  constexpr std::uint32_t n = 1024;
  constexpr std::uint64_t m = 8 * n;
  auto alloc = bbb::core::make_streaming_allocator("adaptive", n, m,
                                                   bbb::core::StateLayout::kCompact);
  bbb::rng::Engine gen = bbb::rng::SeedSequence(7).engine(0);
  alloc->place_batch(m, gen);
  const bbb::core::BinState& state = alloc->state();
  const double max_load = state.max_load();
  expect_fires(perfbench::within_theorem31(max_load, m, n),
               perfbench::within_theorem31(max_load + 2, m, n), "Theorem 3.1 bound");

  std::vector<std::uint32_t> levels = state.level_counts();
  const bool real = perfbench::level_identity_holds(levels, state.balls(), n);
  expect_fires(real, perfbench::level_identity_holds(levels, state.balls() + 1, n),
               "level identity (ball count off by one)");
  // One bin moves up one level: same bin count, one ball too many.
  std::size_t l = 0;
  while (levels[l] == 0) ++l;
  levels[l] -= 1;
  if (l + 1 == levels.size()) levels.push_back(0);
  levels[l + 1] += 1;
  expect(!perfbench::level_identity_holds(levels, state.balls(), n),
         "level identity fires on a corrupted level histogram");
}

void population() {
  bbb::dyn::DynConfig cfg;
  cfg.allocator_spec = "adaptive-net";
  cfg.workload_spec = "churn[1024]";
  cfg.n = 256;
  cfg.warmup = 1024;
  cfg.events = 2048;
  cfg.replicates = 1;
  const bbb::dyn::DynSummary s = bbb::dyn::run_dynamic(cfg);
  const bbb::dyn::DynReplicate& r = s.replicates.front();
  const std::uint64_t balls = r.snapshots.back().balls;
  expect_fires(perfbench::population_holds(balls, 1024, r.dropped_departures),
               perfbench::population_holds(balls - 1, 1024, r.dropped_departures),
               "population (a lost ball)");
  expect(!perfbench::population_holds(balls, 1024, r.dropped_departures + 1),
         "population fires on a dropped departure");
}

void shard_conservation_and_gap() {
  constexpr std::uint32_t n = 4096;
  constexpr std::uint64_t m = 8 * n;
  bbb::shard::ShardOptions opt;
  opt.shards = 4;
  opt.layout = bbb::core::StateLayout::kCompact;
  bbb::shard::ShardedAllocator engine("greedy[2]", n, opt);
  bbb::rng::Engine gen = bbb::rng::SeedSequence(7).engine(0);
  engine.run(m, gen);
  std::vector<std::uint32_t> levels = engine.merged_level_counts();
  expect_fires(perfbench::conservation_holds(engine.balls(), m, levels, n),
               perfbench::conservation_holds(engine.balls() - 1, m, levels, n),
               "shard conservation (a lost ball)");
  levels.back() -= 1;  // a bin vanishes from the histogram
  expect(!perfbench::conservation_holds(engine.balls(), m, levels, n),
         "shard conservation fires on a corrupted level histogram");
  const double max_load = engine.max_load();
  expect_fires(perfbench::greedy_gap_holds(max_load, m, n),
               perfbench::greedy_gap_holds(max_load + 8, m, n), "greedy gap bound");
}

void same_placement() {
  bbb::sim::ExperimentConfig cfg;
  cfg.protocol_spec = "adaptive";
  cfg.n = 1024;
  cfg.m = 8192;
  cfg.replicates = 1;
  cfg.layout = bbb::core::StateLayout::kCompact;
  const bbb::sim::ReplicateRecord a = bbb::sim::run_experiment(cfg).records.front();
  cfg.obs.level = bbb::obs::ObsLevel::kCounters;
  const bbb::sim::ReplicateRecord b = bbb::sim::run_experiment(cfg).records.front();
  const perfbench::Placement untraced{a.max_load, a.min_load, a.psi};
  const perfbench::Placement traced{b.max_load, b.min_load, b.psi};
  perfbench::Placement corrupt = traced;
  corrupt.psi += 1.0;
  expect_fires(untraced == traced, untraced == corrupt, "traced == untraced placement");
}

void tally() {
  perfbench::CheckTally t;
  t.expect(true, "ok");
  t.expect(false, "broken");
  expect(t.attempted == 2 && t.failed == 1 && t.failures.size() == 1,
         "CheckTally counts attempts and failures");
}

}  // namespace

int main() {
  theorem31_and_levels();
  population();
  shard_conservation_and_gap();
  same_placement();
  tally();
  if (failures == 0) std::printf("all output checks fire on corrupted results\n");
  return failures == 0 ? 0 : 1;
}
