/// Baseline protocols: one-choice, greedy[d], left[d], memory(d,k).

#include <gtest/gtest.h>

#include <cmath>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/d_choice.hpp"
#include "bbb/core/protocols/left_d.hpp"
#include "bbb/core/protocols/memory_dk.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/stats/running_stats.hpp"

namespace bbb::core {
namespace {

double mean_max_load(const Protocol& protocol, std::uint64_t m, std::uint32_t n,
                     std::uint32_t reps, std::uint64_t seed) {
  stats::RunningStats s;
  rng::SeedSequence seq(seed);
  for (std::uint32_t r = 0; r < reps; ++r) {
    rng::Engine gen = seq.engine(r);
    s.add(static_cast<double>(max_load(protocol.run(m, n, gen).loads)));
  }
  return s.mean();
}

TEST(OneChoice, ProbesExactlyM) {
  rng::Engine gen(1);
  const AllocationResult res = make_protocol("one-choice")->run(5000, 100, gen);
  EXPECT_EQ(res.probes, 5000u);
}

TEST(OneChoice, MaxLoadNearTheoryAtMEqualsN) {
  // log n / log log n ~ 4.7 at n = 4096; empirical mean max load is in a
  // narrow band around it. Assert a broad sanity window.
  constexpr std::uint32_t n = 4096;
  const double ml = mean_max_load(*make_protocol("one-choice"), n, n, 10, 99);
  EXPECT_GE(ml, 3.0);
  EXPECT_LE(ml, 10.0);
}

TEST(DChoice, ProbesExactlyDM) {
  rng::Engine gen(2);
  const AllocationResult res = make_protocol("greedy[3]")->run(1000, 64, gen);
  EXPECT_EQ(res.probes, 3000u);
}

TEST(DChoice, TwoChoicesBeatOneChoice) {
  constexpr std::uint32_t n = 4096;
  const double one = mean_max_load(*make_protocol("one-choice"), n, n, 10, 7);
  const double two = mean_max_load(*make_protocol("greedy[2]"), n, n, 10, 7);
  EXPECT_LT(two, one);  // the power of two choices
  EXPECT_LE(two, 4.0);  // ln ln n / ln 2 + O(1) ~ 3 at n = 4096
}

TEST(DChoice, MoreChoicesNeverHurt) {
  constexpr std::uint32_t n = 2048;
  const double d2 = mean_max_load(*make_protocol("greedy[2]"), n, n, 20, 8);
  const double d4 = mean_max_load(*make_protocol("greedy[4]"), n, n, 20, 8);
  EXPECT_LE(d4, d2 + 0.5);  // allow sampling noise
}

TEST(DChoice, RejectsZeroD) {
  EXPECT_THROW((void)make_protocol("greedy[0]"), std::invalid_argument);
  EXPECT_THROW(DChoiceRule{0}, std::invalid_argument);
}

TEST(DChoice, DOneEquivalentToOneChoiceInLaw) {
  // greedy[1] is one-choice; same seed gives the same loads because both
  // draw exactly one uniform bin per ball.
  rng::Engine g1(3), g2(3);
  const AllocationResult a = make_protocol("greedy[1]")->run(500, 32, g1);
  const AllocationResult b = make_protocol("one-choice")->run(500, 32, g2);
  EXPECT_EQ(a.loads, b.loads);
}

TEST(LeftD, GroupsPartitionBins) {
  LeftDRule rule(10, 3);
  std::vector<bool> covered(10, false);
  for (std::uint32_t g = 0; g < 3; ++g) {
    const auto [first, last] = rule.group_range(g);
    EXPECT_LT(first, last);
    for (std::uint32_t b = first; b < last; ++b) {
      EXPECT_FALSE(covered[b]) << "bin " << b << " in two groups";
      covered[b] = true;
    }
  }
  for (bool c : covered) EXPECT_TRUE(c);
}

TEST(LeftD, GroupSizesNearlyEqual) {
  LeftDRule rule(1000, 7);
  std::uint32_t lo = 1000, hi = 0;
  for (std::uint32_t g = 0; g < 7; ++g) {
    const auto [first, last] = rule.group_range(g);
    lo = std::min(lo, last - first);
    hi = std::max(hi, last - first);
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(LeftD, CompetitiveWithGreedyAtSameD) {
  // Vöcking's theorem says left[2] beats greedy[2] asymptotically; at finite
  // n we assert it is at least not worse by more than sampling noise.
  constexpr std::uint32_t n = 4096;
  const double g2 = mean_max_load(*make_protocol("greedy[2]"), n, n, 20, 10);
  const double l2 = mean_max_load(*make_protocol("left[2]"), n, n, 20, 10);
  EXPECT_LE(l2, g2 + 0.3);
}

TEST(LeftD, Validation) {
  EXPECT_THROW((void)make_protocol("left[0]"), std::invalid_argument);
  EXPECT_THROW(LeftDRule(4, 5), std::invalid_argument);  // d > n
  LeftDRule ok(4, 4);
  EXPECT_THROW((void)ok.group_range(4), std::invalid_argument);
}

TEST(MemoryDK, FreshProbesOnlyCountD) {
  rng::Engine gen(4);
  const AllocationResult res = make_protocol("memory[1,1]")->run(1000, 64, gen);
  EXPECT_EQ(res.probes, 1000u);  // k memory lookups are free
}

TEST(MemoryDK, MemoryHoldsAtMostKDistinctBins) {
  BinState state(64);
  MemoryDKRule rule(2, 3);
  rng::Engine gen(5);
  for (int i = 0; i < 200; ++i) {
    rule.place_one(state, gen);
    EXPECT_LE(rule.memory().size(), 3u);
    // Entries must be distinct.
    auto mem = rule.memory();
    std::sort(mem.begin(), mem.end());
    EXPECT_EQ(std::adjacent_find(mem.begin(), mem.end()), mem.end());
  }
}

TEST(MemoryDK, BeatsOneChoiceAtMEqualsN) {
  constexpr std::uint32_t n = 4096;
  const double one = mean_max_load(*make_protocol("one-choice"), n, n, 10, 11);
  const double mem = mean_max_load(*make_protocol("memory[1,1]"), n, n, 10, 11);
  EXPECT_LT(mem, one);
  EXPECT_LE(mem, 4.0);  // theory: ln ln n / (2 ln phi_2) + O(1)
}

TEST(MemoryDK, Validation) {
  EXPECT_THROW((void)make_protocol("memory[0,1]"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("memory[1,0]"), std::invalid_argument);
  EXPECT_THROW(MemoryDKRule(0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace bbb::core
