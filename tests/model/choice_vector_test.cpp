#include "bbb/model/choice_vector.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "bbb/core/protocols/registry.hpp"

namespace bbb::model {
namespace {

TEST(ChoiceVector, Validation) {
  EXPECT_THROW(ChoiceVector(0, 1), std::invalid_argument);
  EXPECT_THROW(ChoiceVector(4, 1, 0), std::invalid_argument);
}

TEST(ChoiceVector, EntriesAreStableUnderRandomAccess) {
  ChoiceVector c(100, 42);
  const std::uint32_t e5 = c.at(5);
  const std::uint32_t e9999 = c.at(9999);  // forces many refills
  EXPECT_EQ(c.at(5), e5);
  EXPECT_EQ(c.at(9999), e9999);
}

TEST(ChoiceVector, EntriesWithinRange) {
  ChoiceVector c(7, 3);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(c.next(), 7u);
}

TEST(ChoiceVector, RewindReplaysIdentically) {
  ChoiceVector c(64, 9);
  std::vector<std::uint32_t> first;
  for (int i = 0; i < 500; ++i) first.push_back(c.next());
  c.rewind();
  for (int i = 0; i < 500; ++i) EXPECT_EQ(c.next(), first[i]);
}

TEST(ChoiceVector, ConsumedTracksNextCalls) {
  ChoiceVector c(8, 1);
  EXPECT_EQ(c.consumed(), 0u);
  (void)c.next();
  (void)c.next();
  EXPECT_EQ(c.consumed(), 2u);
  c.rewind();
  EXPECT_EQ(c.consumed(), 0u);
}

// The proof-model equivalence: threshold driven by a pre-drawn ChoiceVector
// is bit-identical to threshold driven by the engine directly with the same
// seed (the vector *is* the engine's output stream).
TEST(ChoiceVector, ThresholdOnChoicesMatchesDirectRun) {
  constexpr std::uint32_t n = 128;
  constexpr std::uint64_t m = 1000;
  constexpr std::uint64_t seed = 77;

  ChoiceVector choices(n, seed);
  const auto loads_via_vector = run_threshold_on_choices(m, choices);

  rng::Engine gen(seed);
  const auto direct = core::make_protocol("threshold")->run(m, n, gen);

  EXPECT_EQ(loads_via_vector, direct.loads);
  EXPECT_EQ(choices.consumed(), direct.probes);
}

TEST(ChoiceVector, ThresholdPlacesAllBalls) {
  ChoiceVector choices(32, 5);
  const auto loads = run_threshold_on_choices(500, choices);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), std::uint64_t{0}), 500u);
}

TEST(ChoiceVector, ZeroBallsConsumesNothing) {
  ChoiceVector choices(32, 5);
  const auto loads = run_threshold_on_choices(0, choices);
  EXPECT_EQ(choices.consumed(), 0u);
  for (auto l : loads) EXPECT_EQ(l, 0u);
}

}  // namespace
}  // namespace bbb::model
