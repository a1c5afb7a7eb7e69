/// Tests for the dynamic engine: determinism across thread counts, the
/// ball-registry departure paths, steady-state sanity for the supermarket
/// and churn scenarios, and snapshot cadence.

#include "bbb/dyn/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace bbb::dyn {
namespace {

DynConfig small_config() {
  DynConfig cfg;
  cfg.allocator_spec = "greedy[2]";
  cfg.workload_spec = "supermarket[80]";
  cfg.n = 64;
  cfg.warmup = 2'000;
  cfg.events = 4'000;
  cfg.stride = 500;
  cfg.tail_max = 8;
  cfg.replicates = 4;
  cfg.seed = 42;
  return cfg;
}

TEST(Engine, DeterministicAcrossThreadCounts) {
  const DynConfig cfg = small_config();
  par::ThreadPool one(1), four(4);
  const DynSummary a = run_dynamic(cfg, one);
  const DynSummary b = run_dynamic(cfg, four);
  ASSERT_EQ(a.replicates.size(), b.replicates.size());
  EXPECT_DOUBLE_EQ(a.psi.mean(), b.psi.mean());
  EXPECT_DOUBLE_EQ(a.balls.mean(), b.balls.mean());
  EXPECT_DOUBLE_EQ(a.probes_per_ball.mean(), b.probes_per_ball.mean());
  for (std::size_t r = 0; r < a.replicates.size(); ++r) {
    ASSERT_EQ(a.replicates[r].snapshots.size(), b.replicates[r].snapshots.size());
    for (std::size_t s = 0; s < a.replicates[r].snapshots.size(); ++s) {
      EXPECT_EQ(a.replicates[r].snapshots[s].balls, b.replicates[r].snapshots[s].balls);
      EXPECT_DOUBLE_EQ(a.replicates[r].snapshots[s].psi,
                       b.replicates[r].snapshots[s].psi);
    }
  }
}

TEST(Engine, SupermarketSteadyStateOccupancyIsPlausible) {
  DynConfig cfg = small_config();
  cfg.allocator_spec = "one-choice";
  cfg.warmup = 20'000;
  cfg.events = 20'000;
  const DynSummary s = run_dynamic(cfg);
  // M/M/1 farm at lambda = 0.8: mean balls per bin is lambda/(1-lambda) = 4
  // in the infinite-buffer limit; the finite run should land in a broad
  // band around lambda*n at minimum.
  EXPECT_GT(s.balls.mean(), 0.5 * 0.8 * cfg.n);
  EXPECT_LT(s.balls.mean(), 12.0 * cfg.n);
  // tail[0] == 1 by definition; the tail is monotone nonincreasing.
  ASSERT_EQ(s.tail.size(), static_cast<std::size_t>(cfg.tail_max) + 1);
  EXPECT_DOUBLE_EQ(s.tail[0].mean(), 1.0);
  for (std::size_t k = 1; k < s.tail.size(); ++k) {
    EXPECT_LE(s.tail[k].mean(), s.tail[k - 1].mean() + 1e-12) << "k=" << k;
  }
}

TEST(Engine, TwoChoicesBeatOneChoiceInTheTail) {
  DynConfig cfg = small_config();
  cfg.n = 128;
  cfg.warmup = 30'000;
  cfg.events = 30'000;
  cfg.workload_spec = "supermarket[90]";
  cfg.replicates = 4;
  cfg.allocator_spec = "one-choice";
  const DynSummary one = run_dynamic(cfg);
  cfg.allocator_spec = "greedy[2]";
  const DynSummary two = run_dynamic(cfg);
  // The doubly-exponential fixed point: by k = 4 the two-choice tail is
  // far below one-choice's geometric tail (0.9^4 ~ 0.66 vs ~0.2).
  EXPECT_LT(two.tail[4].mean(), 0.6 * one.tail[4].mean());
  EXPECT_LT(two.max_load.mean(), one.max_load.mean());
}

TEST(Engine, ChurnHoldsPopulationAndUsesRegistry) {
  DynConfig cfg;
  cfg.allocator_spec = "adaptive-net";
  cfg.workload_spec = "churn[512]";
  cfg.n = 64;
  cfg.warmup = 1'024;  // > population: fill phase complete before measuring
  cfg.events = 4'096;
  cfg.stride = 512;
  cfg.replicates = 2;
  const DynSummary s = run_dynamic(cfg);
  // Population alternates 512 <-> 511 while churning.
  EXPECT_GT(s.balls.mean(), 511.0 - 1.0);
  EXPECT_LT(s.balls.mean(), 512.0 + 1.0);
}

TEST(Engine, OldestBallChurnDrivesFifoPath) {
  DynConfig cfg;
  cfg.allocator_spec = "one-choice";
  cfg.workload_spec = "churn-oldest[100]";
  cfg.n = 16;
  cfg.warmup = 200;
  cfg.events = 1'000;
  cfg.replicates = 2;
  const DynSummary s = run_dynamic(cfg);
  EXPECT_NEAR(s.balls.mean(), 100.0, 1.0);
}

TEST(Engine, AdaptiveNetSmootherThanTotalUnderChurn) {
  DynConfig cfg;
  cfg.workload_spec = "churn[1024]";
  cfg.n = 128;
  cfg.warmup = 4'096;
  cfg.events = 16'384;
  cfg.replicates = 2;
  cfg.allocator_spec = "adaptive-net";
  const DynSummary net = run_dynamic(cfg);
  cfg.allocator_spec = "adaptive-total";
  const DynSummary total = run_dynamic(cfg);
  // The total-placed bound goes vacuous under churn (it keeps climbing
  // while the population holds), so its Psi drifts toward one-choice
  // roughness; the net bound keeps the vector smooth.
  EXPECT_LT(net.psi_per_bin(), total.psi_per_bin());
}

TEST(Engine, SnapshotCadenceAndMonotonicity) {
  const DynConfig cfg = small_config();
  const DynReplicate rep = run_dynamic_replicate(cfg, 0);
  ASSERT_FALSE(rep.snapshots.empty());
  EXPECT_EQ(rep.snapshots.back().events, cfg.events);
  std::uint64_t last = 0;
  double last_time = 0.0;
  for (const DynSnapshot& snap : rep.snapshots) {
    EXPECT_GT(snap.events, last);
    EXPECT_GE(snap.time, last_time);
    EXPECT_TRUE(snap.events % cfg.stride == 0 || snap.events == cfg.events);
    last = snap.events;
    last_time = snap.time;
  }
}

TEST(Engine, ProbesPerBallAtLeastOne) {
  const DynConfig cfg = small_config();
  const DynSummary s = run_dynamic(cfg);
  EXPECT_GE(s.probes_per_ball.mean(), 1.0);
}

TEST(Engine, DescribeMentionsBothSpecs) {
  const DynConfig cfg = small_config();
  const std::string desc = cfg.describe();
  EXPECT_NE(desc.find("greedy[2]"), std::string::npos);
  EXPECT_NE(desc.find("supermarket[80]"), std::string::npos);
}

TEST(Engine, NoDroppedDeparturesAcrossAllGeneratorAllocatorCombos) {
  // The shipped generators promise never to emit a departure when the
  // system is empty; the engine now counts violations instead of silently
  // swallowing them. Sweep every workload family against allocators
  // covering each departure path (ball registry, FIFO, nonempty-bin,
  // unstable-identity override) and demand a zero count.
  const char* const workloads[] = {
      "supermarket[85]",        "churn[256]",        "churn-oldest[256]",
      "bursty[95,10,25]",       "chains[80,110,6]",  "weighted:chains[80,110,6]",
  };
  const char* const allocators[] = {"one-choice", "greedy[2]", "adaptive-net",
                                    "cuckoo[2,8]"};
  for (const char* workload : workloads) {
    for (const char* allocator : allocators) {
      DynConfig cfg;
      cfg.allocator_spec = allocator;
      cfg.workload_spec = workload;
      cfg.n = 32;
      cfg.warmup = 500;
      cfg.events = 2'000;
      cfg.stride = 0;
      cfg.replicates = 2;
      const DynSummary s = run_dynamic(cfg);
      EXPECT_EQ(s.dropped_departures, 0u) << allocator << " x " << workload;
      for (const DynReplicate& rep : s.replicates) {
        EXPECT_EQ(rep.dropped_departures, 0u) << allocator << " x " << workload;
      }
    }
  }
}

TEST(Engine, WeightedChainsPlaceAtomicallyForWeightCapableRules) {
  // weighted:chains + greedy[2]: one 2-probe decision per chain, so probes
  // per *ball* drop below 2 exactly when chains land atomically; the
  // unprefixed workload pays 2 probes per unit ball.
  DynConfig cfg;
  cfg.allocator_spec = "greedy[2]";
  cfg.workload_spec = "weighted:chains[80,0,8]";  // uniform lengths 1..8
  cfg.n = 64;
  cfg.warmup = 2'000;
  cfg.events = 8'000;
  cfg.replicates = 2;
  const DynSummary atomic = run_dynamic(cfg);
  cfg.workload_spec = "chains[80,0,8]";
  const DynSummary exploded = run_dynamic(cfg);
  EXPECT_NEAR(exploded.probes_per_ball.mean(), 2.0, 1e-9);
  // Mean chain length 4.5 -> ~2/4.5 ~ 0.44 probes per ball.
  EXPECT_LT(atomic.probes_per_ball.mean(), 1.0);
  // Atomic chains pile whole bursts into single bins: the load vector is
  // strictly rougher than the per-ball spread.
  EXPECT_GT(atomic.psi.mean(), exploded.psi.mean());
}

TEST(Engine, WeightedChainsFallBackToExplodeForUnitRules) {
  // adaptive has no atomic weighted form; the engine must route the chain
  // through the unit-explode fallback and still run green.
  DynConfig cfg;
  cfg.allocator_spec = "adaptive-net";
  cfg.workload_spec = "weighted:chains[80,110,6]";
  cfg.n = 32;
  cfg.warmup = 1'000;
  cfg.events = 4'000;
  cfg.replicates = 2;
  const DynSummary s = run_dynamic(cfg);
  EXPECT_EQ(s.workload_name, "weighted:chains[80,110,6]");
  EXPECT_GE(s.probes_per_ball.mean(), 1.0);  // every unit ball probes
  EXPECT_EQ(s.dropped_departures, 0u);
}

TEST(Engine, HeterogeneousAllocatorRunsUnderChurn) {
  DynConfig cfg;
  cfg.allocator_spec = "capacities=1,2,4,8:greedy[2]";
  cfg.workload_spec = "churn[512]";
  cfg.n = 64;
  cfg.warmup = 1'024;
  cfg.events = 4'096;
  cfg.replicates = 2;
  const DynSummary s = run_dynamic(cfg);
  EXPECT_EQ(s.allocator_name, "capacities=1,2,4,8:greedy[2]");
  EXPECT_NEAR(s.balls.mean(), 511.5, 1.0);
}

TEST(Engine, InvalidConfigsThrow) {
  DynConfig cfg = small_config();
  cfg.replicates = 0;
  EXPECT_THROW((void)run_dynamic(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.events = 0;
  EXPECT_THROW((void)run_dynamic(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.allocator_spec = "nope";
  EXPECT_THROW((void)run_dynamic(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.workload_spec = "nope";
  EXPECT_THROW((void)run_dynamic(cfg), std::invalid_argument);
  // tail_max is capped before anything is sized from it: near UINT32_MAX
  // the per-level arrays would need tens of GiB per replicate.
  cfg = small_config();
  cfg.tail_max = DynConfig::kMaxTail + 1;
  EXPECT_THROW((void)run_dynamic(cfg), std::invalid_argument);
  EXPECT_THROW((void)run_dynamic_replicate(cfg, 0), std::invalid_argument);
  cfg.tail_max = 4'294'967'295u;
  EXPECT_THROW((void)run_dynamic(cfg), std::invalid_argument);
  EXPECT_THROW((void)run_dynamic_replicate(cfg, 0), std::invalid_argument);
  cfg.events = 0;
  EXPECT_THROW((void)run_dynamic_replicate(cfg, 0), std::invalid_argument);
  cfg = small_config();
  cfg.tail_max = DynConfig::kMaxTail;
  cfg.replicates = 1;
  const DynSummary s = run_dynamic(cfg);
  ASSERT_EQ(s.tail.size(), std::size_t{DynConfig::kMaxTail} + 1);
  EXPECT_EQ(s.tail[0].mean(), 1.0);
  EXPECT_EQ(s.tail[DynConfig::kMaxTail].mean(), 0.0);
}

}  // namespace
}  // namespace bbb::dyn
