/// Bit-for-bit pins of the dyn engine's last snapshot for nine
/// allocator x workload pairs: one per departure and arrival path (the
/// ball registry with uniform and oldest victims, the supermarket's
/// busy-bin victims, atomic weighted chains, cuckoo's bin-occupancy
/// override), plus one per ball clock of the threshold rule under churn
/// (fixed, live net count, placement count published every delta,
/// Zipf-probed placement count, doubling guess). Like tests/protocols/golden_pins_test.cpp, the values are
/// pins captured from this implementation (n = 64, 1000 warm-up + 4000
/// measured events, seed 42, replicate 0), so an event-loop refactor that
/// reorders a draw, a probe or a victim shows up here as a diff. The
/// suite name matches CI's `GoldenPins` lockstep filter.

#include "bbb/dyn/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace bbb::dyn {
namespace {

struct SnapshotPin {
  std::uint64_t balls = 0;
  std::uint32_t max_load = 0;
  std::uint32_t min_load = 0;
  std::uint64_t probes = 0;
  double psi = 0.0;
  double log_phi = 0.0;
};

void expect_pin(const std::string& allocator, const std::string& workload,
                const SnapshotPin& pin) {
  DynConfig cfg;
  cfg.allocator_spec = allocator;
  cfg.workload_spec = workload;
  cfg.n = 64;
  cfg.warmup = 1'000;
  cfg.events = 4'000;
  cfg.stride = 1'000;
  cfg.replicates = 1;
  cfg.seed = 42;
  const DynReplicate rep = run_dynamic_replicate(cfg, 0);
  ASSERT_EQ(rep.snapshots.size(), 4u);
  const DynSnapshot& last = rep.snapshots.back();
  EXPECT_EQ(last.events, cfg.events);
  EXPECT_EQ(last.balls, pin.balls);
  EXPECT_EQ(last.max_load, pin.max_load);
  EXPECT_EQ(last.min_load, pin.min_load);
  EXPECT_EQ(last.probes, pin.probes);
  EXPECT_EQ(last.psi, pin.psi);
  EXPECT_EQ(last.log_phi, pin.log_phi);
}

TEST(DynGoldenPins, AdaptiveNetChurn) {
  expect_pin("adaptive-net", "churn[256]",
             {.balls = 256, .max_load = 5, .min_load = 1, .probes = 4280,
              .psi = 0x1.18p+6, .log_phi = 0x1.0acecba7bb68ep+2});
}

TEST(DynGoldenPins, AdaptiveTotalChurnOldest) {
  expect_pin("adaptive-total", "churn-oldest[256]",
             {.balls = 256, .max_load = 8, .min_load = 1, .probes = 2663,
              .psi = 0x1.88p+7, .log_phi = 0x1.0acf32113f86p+2});
}

TEST(DynGoldenPins, GreedyD2Supermarket) {
  expect_pin("greedy[2]", "supermarket[85]",
             {.balls = 132, .max_load = 4, .min_load = 0, .probes = 5132,
              .psi = 0x1.97p+6, .log_phi = 0x1.0acee56ace9dbp+2});
}

TEST(DynGoldenPins, GreedyD2WeightedChains) {
  expect_pin("greedy[2]", "weighted:chains[80,110,6]",
             {.balls = 58, .max_load = 5, .min_load = 0, .probes = 3012,
              .psi = 0x1.7dcp+6, .log_phi = 0x1.0acee00f9839bp+2});
}

TEST(DynGoldenPins, CuckooChurn) {
  expect_pin("cuckoo[2,8]", "churn[256]",
             {.balls = 256, .max_load = 8, .min_load = 0, .probes = 5256,
              .psi = 0x1.f8p+8, .log_phi = 0x1.0ad02d4f7e395p+2});
}

// Churn pins for the threshold-rule clocks the rows above leave out:
// each clock keeps counting placements (or stays fixed) while balls leave.
TEST(DynGoldenPins, StaleAdaptiveDelta8Churn) {
  expect_pin("stale-adaptive[8]", "churn[256]",
             {.balls = 256, .max_load = 11, .min_load = 0, .probes = 2661,
              .psi = 0x1.36p+8, .log_phi = 0x1.0acf8e478a68ep+2});
}

TEST(DynGoldenPins, SkewedAdaptive50Churn) {
  expect_pin("skewed-adaptive[50]", "churn[256]",
             {.balls = 256, .max_load = 22, .min_load = 0, .probes = 2872,
              .psi = 0x1.a3p+9, .log_phi = 0x1.0ad13400515d3p+2});
}

TEST(DynGoldenPins, DoublingThresholdChurnOldest) {
  expect_pin("doubling-threshold[0]", "churn-oldest[256]",
             {.balls = 256, .max_load = 8, .min_load = 1, .probes = 2653,
              .psi = 0x1.94p+7, .log_phi = 0x1.0acf3701badfcp+2});
}

// No m hint: the fixed bound is ceil(n/n) + 5 - 1 = 5, room for 320 balls,
// so the 256-ball churn population never deadlocks it.
TEST(DynGoldenPins, ThresholdSlack5Churn) {
  expect_pin("threshold[5]", "churn[256]",
             {.balls = 256, .max_load = 6, .min_load = 0, .probes = 3158,
              .psi = 0x1.5cp+7, .log_phi = 0x1.0acf2092e5decp+2});
}

}  // namespace
}  // namespace bbb::dyn
