/// Bit-for-bit placement pins for every protocol family in the registry.
///
/// tools/bbb_lint.py (rule `golden-pin-coverage`) enforces that each
/// family named in core/protocols/registry.cpp appears in a GoldenPins
/// suite — this file is that coverage. Like tests/rng/golden_test.cpp,
/// the values are *pins*, not external vectors: they were captured from
/// this implementation (seed 42, m = 100, n = 10, except cuckoo) and
/// exist so a refactor that silently reorders draws or changes a
/// tie-break is caught as a diff here instead of as drift in recorded
/// experiments. Protocol-level invariants (bounds, conservation) live in
/// invariants_test.cpp; these tests check only exact equality.
///
/// If a pin changes *intentionally* (a protocol's draw order is
/// redefined), update the value in the same PR and call the break out in
/// EXPERIMENTS.md — every recorded run with that spec is invalidated.

#include "bbb/core/protocols/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bbb/rng/streams.hpp"

namespace bbb::core {
namespace {

struct Pin {
  std::uint64_t balls = 0;
  std::uint64_t probes = 0;
  std::uint64_t reallocations = 0;
  std::uint64_t rounds = 0;
};

AllocationResult run_pinned(const std::string& spec, std::uint64_t m = 100,
                            std::uint32_t n = 10) {
  rng::Engine gen(42);
  const auto result = make_protocol(spec)->run(m, n, gen);
  EXPECT_TRUE(result.completed) << spec;
  return result;
}

void expect_pin(const AllocationResult& r, const std::vector<std::uint32_t>& loads,
                const Pin& pin) {
  EXPECT_EQ(r.loads, loads);
  EXPECT_EQ(r.balls, pin.balls);
  EXPECT_EQ(r.probes, pin.probes);
  EXPECT_EQ(r.reallocations, pin.reallocations);
  EXPECT_EQ(r.rounds, pin.rounds);
}

TEST(RegistryGoldenPins, OneChoice) {
  expect_pin(run_pinned("one-choice"), {9, 12, 9, 5, 9, 11, 13, 11, 11, 10},
             {.balls = 100, .probes = 100});
}

TEST(RegistryGoldenPins, GreedyD2) {
  expect_pin(run_pinned("greedy[2]"), {10, 10, 9, 10, 10, 11, 11, 10, 10, 9},
             {.balls = 100, .probes = 200});
}

TEST(RegistryGoldenPins, LeftD2) {
  expect_pin(run_pinned("left[2]"), {10, 10, 10, 10, 11, 10, 10, 10, 10, 9},
             {.balls = 100, .probes = 200});
}

TEST(RegistryGoldenPins, MemoryD2K1) {
  expect_pin(run_pinned("memory[2,1]"), {10, 11, 10, 10, 9, 10, 10, 10, 10, 10},
             {.balls = 100, .probes = 200});
}

TEST(RegistryGoldenPins, ThresholdDefaultSlack) {
  expect_pin(run_pinned("threshold"), {10, 11, 10, 6, 9, 11, 11, 11, 11, 10},
             {.balls = 100, .probes = 104});
}

TEST(RegistryGoldenPins, ThresholdSlack2) {
  expect_pin(run_pinned("threshold[2]"), {9, 12, 9, 6, 9, 11, 12, 11, 11, 10},
             {.balls = 100, .probes = 102});
}

TEST(RegistryGoldenPins, DoublingThreshold) {
  expect_pin(run_pinned("doubling-threshold"), {10, 12, 11, 6, 9, 8, 13, 10, 10, 11},
             {.balls = 100, .probes = 106});
}

// The three adaptive spellings coincide at this scale (net vs total retry
// counting only diverges once retries cross the doubling boundary); each
// still gets its own pin so a change to any one spelling is caught.
TEST(RegistryGoldenPins, Adaptive) {
  expect_pin(run_pinned("adaptive"), {9, 10, 11, 9, 10, 8, 11, 10, 11, 11},
             {.balls = 100, .probes = 131});
}

TEST(RegistryGoldenPins, AdaptiveNet) {
  expect_pin(run_pinned("adaptive-net"), {9, 10, 11, 9, 10, 8, 11, 10, 11, 11},
             {.balls = 100, .probes = 131});
}

TEST(RegistryGoldenPins, AdaptiveTotal) {
  expect_pin(run_pinned("adaptive-total"), {9, 10, 11, 9, 10, 8, 11, 10, 11, 11},
             {.balls = 100, .probes = 131});
}

TEST(RegistryGoldenPins, StaleAdaptiveDelta8) {
  expect_pin(run_pinned("stale-adaptive[8]"), {9, 10, 10, 10, 10, 9, 11, 10, 10, 11},
             {.balls = 100, .probes = 152});
}

TEST(RegistryGoldenPins, SkewedAdaptive50) {
  expect_pin(run_pinned("skewed-adaptive[50]"), {11, 11, 11, 11, 11, 11, 11, 8, 9, 6},
             {.balls = 100, .probes = 147});
}

TEST(RegistryGoldenPins, BatchedCapacity16) {
  // One LW round suffices at capacity 16: the round-synchronous batch
  // path reports rounds = 1 where the streaming protocols report 0.
  expect_pin(run_pinned("batched[16]"), {9, 12, 9, 5, 9, 11, 13, 11, 11, 10},
             {.balls = 100, .probes = 100, .rounds = 1});
}

TEST(RegistryGoldenPins, SelfBalancing) {
  expect_pin(run_pinned("self-balancing"), {10, 10, 10, 10, 10, 10, 10, 10, 10, 10},
             {.balls = 100, .probes = 200, .reallocations = 4, .rounds = 2});
}

// Cuckoo at m = 100 cannot complete in 10 buckets of 4 (40 slots), so its
// pin runs at m = 30 (load factor 0.75) where insertion terminates.
TEST(RegistryGoldenPins, CuckooD2B4) {
  expect_pin(run_pinned("cuckoo[2,4]", 30), {3, 3, 2, 0, 4, 4, 4, 4, 4, 2},
             {.balls = 30, .probes = 60});
}

// ---------------------------------------------------------------------------
// shards[t]: — the sharded engine wrapper (src/bbb/shard/)
// ---------------------------------------------------------------------------

// shards[1]:spec is a registry name prefix on the sequential streaming
// core: that it equals the bare spec (pinned above) bit for bit, every
// family, is a row of the cross-path matrix
// (tests/integration/path_matrix_test.cpp). batched differs: its bare
// spelling is the round-synchronous protocol (rounds = 1) while
// shards[1] runs the streaming rule form, so it gets its own literal pin.
TEST(RegistryGoldenPins, ShardsSingleBatchedStreamingForm) {
  // Same placements as the batched[16] protocol pin (the LW batch order
  // is identical), but the streaming rule form reports rounds = 0.
  expect_pin(run_pinned("shards[1]:batched[16]"),
             {9, 12, 9, 5, 9, 11, 13, 11, 11, 10}, {.balls = 100, .probes = 100});
}

TEST(RegistryGoldenPins, ShardsTwoGreedyD2) {
  // Multi-shard pin: the conflict-deferred round protocol at t = 2.
  // rounds here is the engine's sync-round count (one round at m = 100
  // under the default round size), not an LW round count.
  expect_pin(run_pinned("shards[2]:greedy[2]"), {9, 9, 11, 10, 9, 8, 10, 12, 10, 12},
             {.balls = 100, .probes = 200, .rounds = 1});
}

}  // namespace
}  // namespace bbb::core
