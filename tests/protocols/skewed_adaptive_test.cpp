/// skewed-adaptive[s*100]: the threshold rule probing Zipf(s) bins.

#include <gtest/gtest.h>

#include <numeric>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/protocols/threshold.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::core {
namespace {

TEST(SkewedAdaptive, Validation) {
  using Clock = ThresholdRule::Clock;
  EXPECT_THROW(ThresholdRule("skewed-adaptive[100]", 0, Clock::kPlaced, 1, 1, 1.0),
               std::invalid_argument);
  EXPECT_THROW(ThresholdRule("skewed-adaptive[100]", 8, Clock::kPlaced, 1, 1, -1.0),
               std::invalid_argument);
}

// The load guarantee is distribution-free: it must hold for every skew.
class SkewGuaranteeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SkewGuaranteeTest, MaxLoadBoundSurvivesAnySkew) {
  const std::uint32_t s100 = GetParam();
  constexpr std::uint32_t n = 128;
  constexpr std::uint64_t m = 8ULL * n + 11;
  rng::Engine gen(s100 + 1);
  const auto protocol = make_protocol("skewed-adaptive[" + std::to_string(s100) + "]");
  const auto res = protocol->run(m, n, gen);
  EXPECT_LE(max_load(res.loads), ceil_div(m, n) + 1);
  EXPECT_EQ(std::accumulate(res.loads.begin(), res.loads.end(), std::uint64_t{0}), m);
}

INSTANTIATE_TEST_SUITE_P(SkewSweep, SkewGuaranteeTest,
                         ::testing::Values(0u, 50u, 100u, 150u, 200u));

TEST(SkewedAdaptive, ZeroSkewMatchesPlainAdaptiveStatistically) {
  // s = 0 is uniform probing. The probe *sequence* differs from plain
  // adaptive (alias table consumes two draws), so compare distributions,
  // not bits: allocation cost per ball must agree within a few percent.
  constexpr std::uint32_t n = 512;
  constexpr std::uint64_t m = 16ULL * n;
  double skew_total = 0, plain_total = 0;
  rng::SeedSequence seq(11);
  constexpr int kReps = 10;
  const auto skewed = make_protocol("skewed-adaptive[0]");
  const auto plain = make_protocol("adaptive");
  for (int r = 0; r < kReps; ++r) {
    rng::Engine g1 = seq.engine(r);
    rng::Engine g2 = seq.engine(100 + r);
    skew_total += static_cast<double>(skewed->run(m, n, g1).probes);
    plain_total += static_cast<double>(plain->run(m, n, g2).probes);
  }
  EXPECT_NEAR(skew_total / plain_total, 1.0, 0.05);
}

TEST(SkewedAdaptive, SkewInflatesAllocationTime) {
  // Theorem 3.1's O(m) leans on uniformity: biased probing must cost
  // strictly more, monotonically in s.
  constexpr std::uint32_t n = 512;
  constexpr std::uint64_t m = 8ULL * n;
  rng::SeedSequence seq(13);
  double prev = 0.0;
  for (std::uint32_t s100 : {0u, 100u, 200u}) {
    rng::Engine gen = seq.engine(s100);
    const auto protocol = make_protocol("skewed-adaptive[" + std::to_string(s100) + "]");
    const auto res = protocol->run(m, n, gen);
    const double per_ball = static_cast<double>(res.probes) / static_cast<double>(m);
    EXPECT_GT(per_ball, prev) << "s/100=" << s100;
    prev = per_ball;
  }
  // At s = 2 the cold tail is severe; the cost should be clearly
  // super-constant (well above the uniform ~1.3).
  EXPECT_GT(prev, 5.0);
}

TEST(SkewedAdaptive, StreamingAndBatchAgree) {
  constexpr std::uint32_t n = 64;
  constexpr std::uint64_t m = 500;
  rng::Engine g1(21), g2(21);
  BinState state(n);
  const auto rule = make_rule("skewed-adaptive[50]", n);
  for (std::uint64_t i = 0; i < m; ++i) (void)rule->place_one(state, g1);
  const auto batch = make_protocol("skewed-adaptive[50]")->run(m, n, g2);
  EXPECT_EQ(state.loads(), batch.loads);
  EXPECT_EQ(rule->probes(), batch.probes);
}

TEST(SkewedAdaptive, NameRoundTripsThroughRegistry) {
  EXPECT_EQ(make_protocol("skewed-adaptive[150]")->name(), "skewed-adaptive[150]");
}

}  // namespace
}  // namespace bbb::core
