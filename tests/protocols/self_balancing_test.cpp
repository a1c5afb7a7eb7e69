#include "bbb/core/protocols/self_balancing.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::core {
namespace {

TEST(SelfBalancing, Validation) {
  EXPECT_THROW(SelfBalancingRule{0}, std::invalid_argument);
}

TEST(SelfBalancing, ReachesFixpointOnModerateInstances) {
  rng::Engine gen(1);
  const auto protocol = make_protocol("self-balancing");
  const AllocationResult res = protocol->run(1 << 14, 1 << 10, gen);
  EXPECT_TRUE(res.completed);
  EXPECT_GE(res.rounds, 1u);
}

TEST(SelfBalancing, NearPerfectBalanceHeavyLoad) {
  // CRS: fixpoint max load ~ ceil(m/n) (+1). At m = 16n we allow +1.
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 16ULL * n;
  rng::Engine gen(2);
  const AllocationResult res = make_protocol("self-balancing")->run(m, n, gen);
  EXPECT_TRUE(res.completed);
  EXPECT_LE(max_load(res.loads), ceil_div(m, n) + 1);
}

TEST(SelfBalancing, ImprovesOnPlainGreedyTwo) {
  constexpr std::uint32_t n = 1 << 12;
  constexpr std::uint64_t m = 32ULL * n;
  rng::Engine g1(3), g2(3);
  const AllocationResult greedy = make_protocol("greedy[2]")->run(m, n, g1);
  const AllocationResult balanced = make_protocol("self-balancing")->run(m, n, g2);
  EXPECT_LE(max_load(balanced.loads), max_load(greedy.loads));
  EXPECT_LE(quadratic_potential(balanced.loads, m),
            quadratic_potential(greedy.loads, m));
}

TEST(SelfBalancing, ReallocationsAreReported) {
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 16ULL * n;
  rng::Engine gen(4);
  const AllocationResult res = make_protocol("self-balancing")->run(m, n, gen);
  // At this density greedy[2] is not at the fixpoint, so moves must occur.
  EXPECT_GT(res.reallocations, 0u);
}

TEST(SelfBalancing, SinglePassBudgetReportsIncomplete) {
  // One pass is not enough to reach the fixpoint on a dense instance
  // (statistically certain at this size with this seed).
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 64ULL * n;
  rng::Engine gen(5);
  // A one-pass budget is no spec argument: drive a hand-built rule.
  StreamingAllocator alloc(n, std::make_unique<SelfBalancingRule>(1));
  const AllocationResult res = run_rule(alloc, m, gen);
  EXPECT_FALSE(res.completed);
  // Balls are still conserved even when incomplete.
  std::uint64_t total = 0;
  for (std::uint32_t l : res.loads) total += l;
  EXPECT_EQ(total, m);
}

TEST(SelfBalancing, FixpointHasNoImprovingMove) {
  // Indirect check: running the protocol twice (fresh seeds) both reach
  // completed == true, and a completed run's gap is at most 2 in the heavy
  // regime (any gap > 2 between a ball's two choices would have moved).
  constexpr std::uint32_t n = 512;
  constexpr std::uint64_t m = 128ULL * n;
  rng::Engine gen(6);
  const AllocationResult res = make_protocol("self-balancing")->run(m, n, gen);
  ASSERT_TRUE(res.completed);
  // The *global* gap can exceed 2 only between bins not linked by any
  // ball's choice pair; at 128 balls per bin that is vanishingly rare.
  EXPECT_LE(load_gap(res.loads), 3u);
}

}  // namespace
}  // namespace bbb::core
