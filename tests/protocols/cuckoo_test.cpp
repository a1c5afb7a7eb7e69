#include "bbb/core/protocols/cuckoo.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::core {
namespace {

TEST(Cuckoo, Validation) {
  EXPECT_THROW(CuckooRule(0, {2, 4, 100}), std::invalid_argument);
  EXPECT_THROW(CuckooRule(8, {0, 4, 100}), std::invalid_argument);
  EXPECT_THROW(CuckooRule(8, {2, 0, 100}), std::invalid_argument);
  EXPECT_THROW(CuckooRule(8, {2, 4, 0}), std::invalid_argument);
  EXPECT_THROW(CuckooRule(2, {3, 4, 100}), std::invalid_argument);  // d > n
}

TEST(Cuckoo, BucketSizeNeverExceeded) {
  BinState state(128);
  CuckooRule rule(128, {2, 4, 200});
  rng::Engine gen(1);
  for (int i = 0; i < 400; ++i) (void)rule.place_one(state, gen);
  for (std::uint32_t l : state.loads()) EXPECT_LE(l, 4u);
}

TEST(Cuckoo, ModerateLoadFactorAlwaysSucceeds) {
  // d=2, k=4 supports load factors well above 0.9; at 0.75 every insert
  // must succeed.
  constexpr std::uint32_t n = 1024;
  BinState state(n);
  CuckooRule rule(n, {2, 4, 500});
  rng::Engine gen(2);
  const auto target = static_cast<std::uint64_t>(0.75 * 4 * n);
  for (std::uint64_t i = 0; i < target; ++i) {
    (void)rule.place_one(state, gen);
    ASSERT_EQ(rule.stash(), 0u) << "failed at item " << i;
  }
  EXPECT_TRUE(rule.completed());
  EXPECT_EQ(state.balls(), target);
}

TEST(Cuckoo, OverfullTableFailsCleanly) {
  // More items than slots: failures are inevitable and must be reported,
  // with the table still consistent.
  constexpr std::uint32_t n = 64;
  BinState state(n);
  CuckooRule rule(n, {2, 2, 50});
  rng::Engine gen(3);
  for (std::uint64_t i = 0; i < 3ULL * 2 * n; ++i) {
    (void)rule.place_one(state, gen);
  }
  EXPECT_GT(rule.stash(), 0u);
  EXPECT_FALSE(rule.completed());
  // Stored items + stash == attempts.
  std::uint64_t stored = 0;
  for (std::uint32_t l : state.loads()) stored += l;
  EXPECT_EQ(stored + rule.stash(), rule.total_placed());
  EXPECT_EQ(stored, state.balls());
}

TEST(Cuckoo, MovesCountedOnlyWhenEvicting) {
  // A nearly empty table never evicts.
  BinState state(256);
  CuckooRule rule(256, {2, 4, 100});
  rng::Engine gen(4);
  for (int i = 0; i < 32; ++i) (void)rule.place_one(state, gen);
  EXPECT_EQ(rule.moves(), 0u);
  EXPECT_EQ(rule.reallocations(), 0u);
}

TEST(Cuckoo, ProbesAreDPerItem) {
  BinState state(256);
  CuckooRule rule(256, {3, 4, 100});
  rng::Engine gen(5);
  for (int i = 0; i < 100; ++i) (void)rule.place_one(state, gen);
  EXPECT_EQ(rule.probes(), 300u);
}

TEST(CuckooProtocol, RunAggregatesRule) {
  rng::Engine gen(6);
  const AllocationResult res = make_protocol("cuckoo[2,4]")->run(2048, 1024, gen);
  EXPECT_TRUE(res.completed);  // load factor 0.5, trivially feasible
  EXPECT_EQ(res.balls, 2048u);
  std::uint64_t total = 0;
  for (std::uint32_t l : res.loads) total += l;
  EXPECT_EQ(total, 2048u);
}

TEST(CuckooProtocol, ReportsFailureAboveCapacity) {
  rng::Engine gen(7);
  CuckooRule::Params params{2, 2, 100};
  // A 100-kick budget is no spec argument: drive a hand-built rule.
  StreamingAllocator alloc(128, std::make_unique<CuckooRule>(128, params));
  const AllocationResult res = run_rule(alloc, 600, gen);  // 600 > 256
  EXPECT_FALSE(res.completed);
  EXPECT_LT(res.balls, 600u);
}

}  // namespace
}  // namespace bbb::core
