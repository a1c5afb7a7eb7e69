/// Paper-specific properties of the two core protocols:
///   * the max-load guarantee ceil(m/n) + 1 (both, by construction)
///   * the integer acceptance rule == the paper's real-valued rule
///   * adaptive's bound evolves as ceil(i/n), threshold's is fixed
///   * every clock of the one threshold rule gives the closed-form bound
///     ceil(c/n) + slack - 1, departures included
///   * slack-0 variants achieve the perfectly tight bound ceil(m/n)
///   * allocation-time behaviour (statistical, generous margins)

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <tuple>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/protocols/threshold.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/theory/bounds.hpp"

namespace bbb::core {
namespace {

/// The bound the next ball of a registry-built threshold-family rule uses.
std::uint32_t next_bound(const PlacementRule& rule, const BinState& state) {
  return dynamic_cast<const ThresholdRule&>(rule).accept_bound(state);
}

// ----------------------------------------------------- integer-rule identity

// The paper's rule for ball i: accept bin with load < i/n + 1 (reals).
// Our hot loop: accept iff load <= ceil(i/n). Verify equivalence exhaustively
// over a grid of (i, n, load).
TEST(IntegerRule, MatchesRealValuedDefinition) {
  for (std::uint32_t n : {1u, 2u, 3u, 7u, 64u, 1000u}) {
    for (std::uint64_t i = 1; i <= 3ULL * n + 2; ++i) {
      const auto bound = static_cast<std::uint32_t>(ceil_div(i, n));
      for (std::uint32_t load = 0; load <= bound + 2; ++load) {
        const bool real_rule =
            static_cast<double>(load) < static_cast<double>(i) / n + 1.0;
        const bool int_rule = load <= bound;
        ASSERT_EQ(real_rule, int_rule) << "i=" << i << " n=" << n << " load=" << load;
      }
    }
  }
}

TEST(IntegerRule, CeilDivKnownValues) {
  EXPECT_EQ(ceil_div(0, 5), 0u);
  EXPECT_EQ(ceil_div(1, 5), 1u);
  EXPECT_EQ(ceil_div(5, 5), 1u);
  EXPECT_EQ(ceil_div(6, 5), 2u);
  EXPECT_EQ(ceil_div(10, 1), 10u);
}

// ------------------------------------------------------- max-load guarantee

struct Shape {
  std::uint64_t m;
  std::uint32_t n;
  std::uint64_t seed;
};

void PrintTo(const Shape& s, std::ostream* os) {
  *os << "m=" << s.m << ",n=" << s.n << ",seed=" << s.seed;
}

class MaxLoadGuaranteeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(MaxLoadGuaranteeTest, AdaptiveNeverExceedsCeilPlusOne) {
  const auto& [m, n, seed] = GetParam();
  rng::Engine gen(seed);
  const AllocationResult res = make_protocol("adaptive")->run(m, n, gen);
  EXPECT_LE(max_load(res.loads), ceil_div(m, n) + 1);
}

TEST_P(MaxLoadGuaranteeTest, ThresholdNeverExceedsCeilPlusOne) {
  const auto& [m, n, seed] = GetParam();
  rng::Engine gen(seed);
  const AllocationResult res = make_protocol("threshold")->run(m, n, gen);
  EXPECT_LE(max_load(res.loads), ceil_div(m, n) + 1);
}

TEST_P(MaxLoadGuaranteeTest, SlackZeroAchievesPerfectBound) {
  const auto& [m, n, seed] = GetParam();
  if (m == 0) GTEST_SKIP();
  rng::Engine gen(seed);
  const AllocationResult res = make_protocol("adaptive[0]")->run(m, n, gen);
  EXPECT_EQ(max_load(res.loads), ceil_div(m, n));
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, MaxLoadGuaranteeTest,
    ::testing::Values(Shape{1, 1, 1}, Shape{100, 10, 2}, Shape{101, 10, 3},
                      Shape{999, 10, 4}, Shape{1000, 1000, 5}, Shape{5000, 64, 6},
                      Shape{64, 4096, 7}, Shape{12345, 67, 8}, Shape{4096, 17, 9},
                      Shape{100000, 100, 10}));

// -------------------------------------------------------- adaptive mechanics

TEST(Adaptive, BoundStartsAtSlackAndBumpsPerStage) {
  BinState state(4);
  const auto rule = make_rule("adaptive", 4);
  rng::Engine gen(3);
  EXPECT_EQ(next_bound(*rule, state), 1u);  // balls 1..4: ceil(i/4) = 1
  for (int i = 0; i < 4; ++i) rule->place_one(state, gen);
  EXPECT_EQ(next_bound(*rule, state), 2u);  // balls 5..8: ceil(i/4) = 2
  for (int i = 0; i < 4; ++i) rule->place_one(state, gen);
  EXPECT_EQ(next_bound(*rule, state), 3u);
}

TEST(Adaptive, EveryPrefixRespectsItsOwnBound) {
  // Strictly stronger than the final-load test: after every single ball i,
  // no bin may exceed ceil(i/n) + 1.
  constexpr std::uint32_t n = 16;
  BinState state(n);
  const auto rule = make_rule("adaptive", n);
  rng::Engine gen(11);
  for (std::uint64_t i = 1; i <= 20 * n; ++i) {
    rule->place_one(state, gen);
    const auto cap = static_cast<std::uint32_t>(ceil_div(i, n) + 1);
    for (std::uint32_t b = 0; b < n; ++b) {
      ASSERT_LE(state.load(b), cap) << "after ball " << i;
    }
  }
}

TEST(Adaptive, StreamingMatchesBatchProtocol) {
  constexpr std::uint32_t n = 32;
  constexpr std::uint64_t m = 500;
  rng::Engine g1(21), g2(21);
  BinState state(n);
  const auto rule = make_rule("adaptive", n);
  for (std::uint64_t i = 0; i < m; ++i) rule->place_one(state, g1);
  const AllocationResult batch = make_protocol("adaptive")->run(m, n, g2);
  EXPECT_EQ(state.loads(), batch.loads);
  EXPECT_EQ(rule->probes(), batch.probes);
}

TEST(Adaptive, RejectsZeroBins) {
  // The shared BinState owns the n > 0 invariant for every rule.
  EXPECT_THROW(BinState(0), std::invalid_argument);
  rng::Engine gen(1);
  EXPECT_THROW((void)make_protocol("adaptive")->run(10, 0, gen), std::invalid_argument);
}

// ------------------------------------------------------- threshold mechanics

TEST(Threshold, AcceptBoundIsCeilOfAverage) {
  const BinState state(10);
  EXPECT_EQ(next_bound(*make_rule("threshold", 10, 100), state), 10u);
  EXPECT_EQ(next_bound(*make_rule("threshold", 10, 101), state), 11u);
  EXPECT_EQ(next_bound(*make_rule("threshold[2]", 10, 100), state), 11u);
  EXPECT_EQ(next_bound(*make_rule("threshold[0]", 10, 100), state), 9u);
}

TEST(Threshold, DeadlockedBoundThrowsInsteadOfSpinning) {
  // slack 0 over m = n accepts only empty bins: once every bin holds a
  // ball the fixed bound can never admit another, and the rule reports
  // the deadlock in O(1) rather than probing forever.
  BinState state(2);
  const auto rule = make_rule("threshold[0]", 2, 2);
  rng::Engine gen(5);
  rule->place_one(state, gen);
  rule->place_one(state, gen);
  EXPECT_EQ(state.max_load(), 1u);
  EXPECT_THROW(rule->place_one(state, gen), std::logic_error);
  // A departure re-opens capacity (the dynamic reading of the bound).
  state.remove_ball(0);
  EXPECT_NO_THROW(rule->place_one(state, gen));
}

TEST(Threshold, SlackZeroRejectedOnlyForZeroM) {
  using Clock = ThresholdRule::Clock;
  EXPECT_THROW(ThresholdRule("threshold[0]", 4, Clock::kFixed, 0, 0), std::invalid_argument);
  EXPECT_NO_THROW(ThresholdRule("threshold[0]", 4, Clock::kFixed, 4, 0));
}

TEST(Threshold, HugeSlackSaturatesInsteadOfWrapping) {
  // ceil(m/n) + slack - 1 exceeds UINT32_MAX; a uint32 sum would wrap to a
  // bound below every load and abort the run.
  const auto rule = make_rule("threshold[4294967295]", 10, 20);
  EXPECT_EQ(next_bound(*rule, BinState(10)), std::numeric_limits<std::uint32_t>::max());
  rng::Engine gen(3);
  const AllocationResult res = make_protocol("threshold[4294967295]")->run(20, 10, gen);
  EXPECT_EQ(res.balls, 20u);
  EXPECT_EQ(res.probes, 20u);  // every bin qualifies, so one probe per ball
}

TEST(Threshold, HugeAverageLoadSaturatesInsteadOfTruncating) {
  // m/n >= 2^32: truncating ceil(m/n) to uint32 would give a bound of 0.
  constexpr std::uint64_t m = std::uint64_t{1} << 33;
  for (const std::uint32_t slack : {0u, 1u, 2u}) {
    const auto rule = make_rule("threshold[" + std::to_string(slack) + "]", 1, m);
    BinState state(1);
    EXPECT_EQ(next_bound(*rule, state), std::numeric_limits<std::uint32_t>::max()) << slack;
    rng::Engine gen(4);
    EXPECT_EQ(rule->place_one(state, gen), 0u) << slack;
  }
}

TEST(Threshold, SlackZeroGivesPerfectlyFlatLoad) {
  constexpr std::uint32_t n = 64;
  constexpr std::uint64_t m = 4 * n;
  rng::Engine gen(9);
  const AllocationResult res = make_protocol("threshold[0]")->run(m, n, gen);
  for (std::uint32_t l : res.loads) EXPECT_EQ(l, 4u);
}

// ------------------------------------------------ one bound, one clock each

// One row per family spec: the clock's count c for the next ball, from the
// placements so far and the balls present. The rule must accept exactly
// load <= ceil(c/n) + slack - 1 after every placement and departure.
struct ClockRow {
  std::string spec;
  std::uint32_t n;
  std::uint64_t m_hint;
  std::uint32_t slack;
  std::function<std::uint64_t(std::uint64_t placed, std::uint64_t balls)> c;
};

void PrintTo(const ClockRow& row, std::ostream* os) { *os << row.spec << ",n=" << row.n; }

class ThresholdClockTest : public ::testing::TestWithParam<ClockRow> {};

TEST_P(ThresholdClockTest, BoundMatchesClosedFormUnderChurn) {
  const ClockRow& row = GetParam();
  const auto alloc = make_streaming_allocator(row.spec, row.n, row.m_hint);
  rng::Engine gen(row.n + row.slack);
  const auto expected = [&] {
    const std::uint64_t c = row.c(alloc->total_placed(), alloc->state().balls());
    return ceil_div(c, row.n) + row.slack - 1;
  };
  ASSERT_EQ(next_bound(alloc->rule(), alloc->state()), expected());
  // Every third event is a departure; five stages of placements pass two
  // doublings of a first guess of n (at n and 2n placements).
  for (std::uint64_t event = 0; alloc->total_placed() < 5ULL * row.n; ++event) {
    if (event % 3 == 2) {
      alloc->remove(alloc->state().sample_nonempty(gen));
    } else {
      (void)alloc->place(gen);
    }
    ASSERT_EQ(next_bound(alloc->rule(), alloc->state()), expected())
        << "after event " << event << ", placed " << alloc->total_placed();
  }
}

ClockRow fixed_row(const std::string& spec, std::uint32_t n, std::uint64_t m_hint,
                   std::uint32_t slack) {
  // No hint provisions for m = n.
  return {spec, n, m_hint, slack,
          [m = m_hint == 0 ? n : m_hint](std::uint64_t, std::uint64_t) { return m; }};
}

ClockRow placed_row(const std::string& spec, std::uint32_t n, std::uint32_t slack,
                    std::uint64_t delta = 1) {
  // The count is republished every delta placements: p = delta floor(placed/delta).
  return {spec, n, 0, slack,
          [delta](std::uint64_t placed, std::uint64_t) { return placed / delta * delta + 1; }};
}

ClockRow net_row(const std::string& spec, std::uint32_t n, std::uint32_t slack) {
  return {spec, n, 0, slack, [](std::uint64_t, std::uint64_t balls) { return balls + 1; }};
}

ClockRow doubling_row(const std::string& spec, std::uint32_t n, std::uint64_t guess) {
  return {spec, n, 0, 1, [first = guess == 0 ? n : guess](std::uint64_t placed, std::uint64_t) {
            std::uint64_t m = first;
            while (placed >= m) m *= 2;
            return m;
          }};
}

INSTANTIATE_TEST_SUITE_P(
    EveryFamily, ThresholdClockTest,
    ::testing::Values(
        // The fixed bounds admit the churn's peak population (2.5n).
        fixed_row("threshold", 8, 24, 1), fixed_row("threshold[0]", 8, 32, 0),
        fixed_row("threshold[2]", 7, 0, 2), fixed_row("threshold[3]", 8, 0, 3),
        placed_row("adaptive", 8, 1), placed_row("adaptive[0]", 8, 0),
        placed_row("adaptive[2]", 7, 2), placed_row("adaptive-total", 8, 1),
        placed_row("adaptive-total[0]", 5, 0), net_row("adaptive-net", 8, 1),
        net_row("adaptive-net[0]", 8, 0), net_row("adaptive-net[3]", 7, 3),
        placed_row("stale-adaptive[1]", 8, 1, 1), placed_row("stale-adaptive[3]", 8, 1, 3),
        placed_row("stale-adaptive[5]", 7, 1, 5), placed_row("stale-adaptive[8]", 8, 1, 8),
        placed_row("skewed-adaptive[0]", 8, 1), placed_row("skewed-adaptive[150]", 8, 1),
        doubling_row("doubling-threshold[0]", 8, 0), doubling_row("doubling-threshold[3]", 8, 3),
        doubling_row("doubling-threshold[1]", 5, 1)));

// -------------------------------------------------- allocation-time behaviour

TEST(AllocationTime, ThresholdCloseToM) {
  // Theorem 4.1: probes = m + O(m^{3/4} n^{1/4}). With m = 64n the overhead
  // is a few percent; allow a generous factor 8 on the scale term.
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 64ULL * n;
  rng::Engine gen(13);
  const AllocationResult res = make_protocol("threshold")->run(m, n, gen);
  EXPECT_GE(res.probes, m);
  const double overhead = static_cast<double>(res.probes - m);
  EXPECT_LE(overhead, 8.0 * theory::threshold_overhead_scale(m, n))
      << "probes=" << res.probes;
}

TEST(AllocationTime, AdaptiveLinearInM) {
  // Theorem 3.1: E[T] = O(m). Empirically probes/m is a small constant
  // (~2.1 at phi = 16); assert a loose ceiling of 8.
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 16ULL * n;
  rng::Engine gen(14);
  const AllocationResult res = make_protocol("adaptive")->run(m, n, gen);
  const double per_ball = static_cast<double>(res.probes) / static_cast<double>(m);
  EXPECT_GE(per_ball, 1.0);
  EXPECT_LE(per_ball, 8.0);
}

TEST(AllocationTime, SlackZeroAdaptivePaysCouponCollector) {
  // With slack 0 each stage is a coupon collector: Theta(n log n) per stage,
  // i.e. probes/m = Theta(log n) rather than O(1).
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 8ULL * n;
  rng::Engine gen(15);
  const AllocationResult tight = make_protocol("adaptive[0]")->run(m, n, gen);
  const double per_ball = static_cast<double>(tight.probes) / static_cast<double>(m);
  // H_n ~ ln(1024) ~ 6.9; the per-stage cost is ~ n*H_n / n. Allow wide band.
  EXPECT_GE(per_ball, 3.0);
  EXPECT_LE(per_ball, 14.0);
}

// ----------------------------------------------------------- smoothness gap

TEST(Smoothness, AdaptiveGapIsLogarithmic) {
  // Corollary 3.5: gap = O(log n) w.h.p. Allow constant 6 over ln n + slack.
  constexpr std::uint32_t n = 1 << 12;
  constexpr std::uint64_t m = 32ULL * n;
  rng::Engine gen(16);
  const AllocationResult res = make_protocol("adaptive")->run(m, n, gen);
  const double gap = load_gap(res.loads);
  EXPECT_LE(gap, 6.0 * std::log(static_cast<double>(n)) + 4.0);
}

TEST(Smoothness, ThresholdGapGrowsWithHeavyLoad) {
  // Lemma 4.2 regime (m = n^2 scaled down): threshold leaves deep holes, so
  // its gap must clearly exceed adaptive's on the same instance size.
  constexpr std::uint32_t n = 256;
  constexpr std::uint64_t m = static_cast<std::uint64_t>(n) * n;
  rng::Engine g1(17), g2(17);
  const AllocationResult th = make_protocol("threshold")->run(m, n, g1);
  const AllocationResult ad = make_protocol("adaptive")->run(m, n, g2);
  EXPECT_GT(load_gap(th.loads), 2 * load_gap(ad.loads));
}

}  // namespace
}  // namespace bbb::core
