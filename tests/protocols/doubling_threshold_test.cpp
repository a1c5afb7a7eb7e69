/// doubling-threshold[guess]: the threshold rule whose count is a guess M,
/// doubled once M balls were placed.

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <string>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/protocols/threshold.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::core {
namespace {

/// The bound the next ball of a registry-built doubling rule uses.
std::uint32_t next_bound(const PlacementRule& rule, const BinState& state) {
  return dynamic_cast<const ThresholdRule&>(rule).accept_bound(state);
}

TEST(DoublingThreshold, Validation) {
  using Clock = ThresholdRule::Clock;
  EXPECT_THROW(ThresholdRule("doubling-threshold[1]", 0, Clock::kDoubling, 1),
               std::invalid_argument);
  EXPECT_THROW((void)make_rule("doubling-threshold", 0), std::invalid_argument);
  EXPECT_THROW(ThresholdRule("doubling-threshold[0]", 8, Clock::kDoubling, 0),
               std::invalid_argument);  // the registry resolves guess 0 to n
}

TEST(DoublingThreshold, GuessDefaultsToN) {
  constexpr std::uint32_t n = 64;
  BinState state(n);
  const auto rule = make_rule("doubling-threshold[0]", n);
  rng::Engine gen(2);
  // Guess n: bound ceil(n/n) = 1 for balls 1..n, then ceil(2n/n) = 2.
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(next_bound(*rule, state), 1u) << i;
    (void)rule->place_one(state, gen);
  }
  EXPECT_EQ(next_bound(*rule, state), 2u);
}

TEST(DoublingThreshold, GuessDoublesWhenExhausted) {
  constexpr std::uint32_t n = 16;
  BinState state(n);
  const auto rule = make_rule("doubling-threshold", n);
  rng::Engine gen(3);
  for (std::uint32_t i = 0; i < n; ++i) (void)rule->place_one(state, gen);
  EXPECT_EQ(next_bound(*rule, state), 2u);  // ball n + 1 sees the guess 2n
  (void)rule->place_one(state, gen);
  EXPECT_EQ(next_bound(*rule, state), 2u);
}

TEST(DoublingThreshold, ConservesBalls) {
  rng::Engine gen(5);
  const auto res = make_protocol("doubling-threshold")->run(1000, 33, gen);
  EXPECT_EQ(std::accumulate(res.loads.begin(), res.loads.end(), std::uint64_t{0}),
            1000u);
}

TEST(DoublingThreshold, MaxLoadBoundedByFinalGuess) {
  // The bound the scheme actually guarantees: ceil(M_final/n) + 1 where
  // M_final < 2m (for m >= initial guess).
  constexpr std::uint32_t n = 128;
  for (std::uint64_t m : {150ULL * n / 100, 3ULL * n, 9ULL * n / 2}) {
    rng::Engine gen(m);
    const auto res = make_protocol("doubling-threshold")->run(m, n, gen);
    EXPECT_LE(max_load(res.loads), ceil_div(2 * m, n) + 1) << "m=" << m;
  }
}

TEST(DoublingThreshold, LosesOptimalLoadPastDoublingBoundary) {
  // m just past a doubling boundary: the current guess is ~2m, so the
  // acceptance bound is ~2m/n and the realized max load clearly exceeds
  // adaptive's ceil(m/n)+1 — the design failure adaptive exists to fix.
  constexpr std::uint32_t n = 1 << 10;
  const std::uint64_t m = 8ULL * n + n / 4;  // just past guess 8n
  rng::Engine g1(7), g2(7);
  const auto doubling = make_protocol("doubling-threshold")->run(m, n, g1);
  const auto adapt = make_protocol("adaptive")->run(m, n, g2);
  EXPECT_LE(max_load(adapt.loads), ceil_div(m, n) + 1);
  EXPECT_GT(max_load(doubling.loads), ceil_div(m, n) + 1);
}

TEST(DoublingThreshold, AllocationTimeStaysLinear) {
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 20ULL * n;
  rng::Engine gen(9);
  const auto res = make_protocol("doubling-threshold")->run(m, n, gen);
  EXPECT_LT(static_cast<double>(res.probes), 2.0 * static_cast<double>(m));
}

TEST(DoublingThreshold, ExplicitInitialGuessHonored) {
  BinState state(10);
  const auto rule = make_rule("doubling-threshold[100]", 10);
  rng::Engine gen(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(next_bound(*rule, state), 10u) << i;  // guess 100 for balls 1..100
    (void)rule->place_one(state, gen);
  }
  EXPECT_EQ(next_bound(*rule, state), 20u);  // then 200
}

TEST(DoublingThreshold, HugeGuessSaturatesInsteadOfTruncating) {
  // ceil(guess/n) >= 2^32: a uint32 truncation gives a bound of 0, so the
  // run spins forever once every bin holds a ball.
  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint32_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  for (const std::uint64_t guess : {kMax64, std::uint64_t{1} << 63}) {
    const std::string spec = "doubling-threshold[" + std::to_string(guess) + "]";
    EXPECT_EQ(next_bound(*make_rule(spec, 32), BinState(32)), kMax32) << guess;
    rng::Engine gen(3);
    const AllocationResult res = make_protocol(spec)->run(60, 32, gen);
    EXPECT_EQ(res.balls, 60u) << guess;
    EXPECT_EQ(res.probes, 60u) << guess;  // every bin qualifies, one probe per ball
  }
  EXPECT_EQ(ThresholdRule::bound_for(kMax64, 1, 1), kMax32);
  EXPECT_EQ(ThresholdRule::bound_for(std::uint64_t{kMax32} + 1, 2, 1), 2147483648u);
}

TEST(DoublingThreshold, DoublingSaturatesInsteadOfWrapping) {
  // The guess doubles exactly when the placement count reaches it, so it
  // could pass 2^63 only after 2^63 placements; below that the doubling is
  // exact: guess 3 on one bin gives bounds 3, 6, 12 over balls 1..12.
  BinState state(1);
  const auto rule = make_rule("doubling-threshold[3]", 1);
  rng::Engine gen(5);
  for (const std::uint32_t bound : {3u, 3u, 3u, 6u, 6u, 6u, 12u, 12u, 12u, 12u, 12u, 12u}) {
    EXPECT_EQ(next_bound(*rule, state), bound) << state.balls();
    (void)rule->place_one(state, gen);
  }
  EXPECT_EQ(next_bound(*rule, state), 24u);
  // Guesses at the top of the range keep the bound saturated instead of
  // wrapping to a bound below every load.
  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t guess : {kMax64 / 2, std::uint64_t{1} << 63, kMax64}) {
    BinState one(1);
    const auto top = make_rule("doubling-threshold[" + std::to_string(guess) + "]", 1);
    for (int i = 0; i < 3; ++i) (void)top->place_one(one, gen);
    EXPECT_EQ(next_bound(*top, one), std::numeric_limits<std::uint32_t>::max()) << guess;
    EXPECT_EQ(top->probes(), 3u) << guess;
  }
}

TEST(DoublingThreshold, RegistryRoundTrip) {
  const auto p = make_protocol("doubling-threshold[64]");
  EXPECT_EQ(p->name(), "doubling-threshold[64]");
}

}  // namespace
}  // namespace bbb::core
