/// Tests for the unified bin-load state: the LoadVector-style counting
/// API plus the O(1) incremental metrics, checked against the batch
/// recomputation in core/metrics.hpp.

#include "bbb/core/bin_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "bbb/core/metrics.hpp"

namespace bbb::core {
namespace {

// Recompute every incremental metric from the raw loads and compare. This
// is the core correctness property of BinState: no event sequence may
// drift the incremental values away from the batch definitions.
void expect_metrics_match(const BinState& state, double tol = 1e-9) {
  const auto& loads = state.loads();
  const LoadMetrics batch = compute_metrics(loads, state.balls());
  EXPECT_EQ(state.max_load(), batch.max);
  EXPECT_EQ(state.min_load(), batch.min);
  EXPECT_EQ(state.gap(), batch.gap);
  EXPECT_NEAR(state.psi(), batch.psi, tol * (1.0 + std::abs(batch.psi)));
  EXPECT_NEAR(state.log_phi(), batch.log_phi, tol * (1.0 + std::abs(batch.log_phi)));
  std::uint32_t nonempty = 0;
  for (const auto l : loads) nonempty += l > 0 ? 1 : 0;
  EXPECT_EQ(state.nonempty_bins(), nonempty);
}

TEST(BinState, RejectsZeroBins) {
  EXPECT_THROW(BinState(0), std::invalid_argument);
}

TEST(BinState, StartsEmpty) {
  BinState v(4);
  EXPECT_EQ(v.n(), 4u);
  EXPECT_EQ(v.balls(), 0u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(v.load(i), 0u);
  EXPECT_DOUBLE_EQ(v.average(), 0.0);
  EXPECT_EQ(v.max_load(), 0u);
  EXPECT_EQ(v.min_load(), 0u);
  EXPECT_EQ(v.nonempty_bins(), 0u);
  EXPECT_DOUBLE_EQ(v.psi(), 0.0);
  expect_metrics_match(v);
}

TEST(BinState, AddAndRemove) {
  BinState v(3);
  v.add_ball(1);
  v.add_ball(1);
  v.add_ball(2);
  EXPECT_EQ(v.balls(), 3u);
  EXPECT_EQ(v.load(0), 0u);
  EXPECT_EQ(v.load(1), 2u);
  EXPECT_EQ(v.load(2), 1u);
  EXPECT_DOUBLE_EQ(v.average(), 1.0);
  expect_metrics_match(v);
  v.remove_ball(1);
  EXPECT_EQ(v.balls(), 2u);
  EXPECT_EQ(v.load(1), 1u);
  expect_metrics_match(v);
}

TEST(BinState, ClearResetsEverything) {
  BinState v(2);
  v.add_ball(0);
  v.add_ball(0);
  v.add_ball(1);
  v.clear();
  EXPECT_EQ(v.balls(), 0u);
  EXPECT_EQ(v.load(0), 0u);
  EXPECT_EQ(v.load(1), 0u);
  EXPECT_EQ(v.max_load(), 0u);
  EXPECT_EQ(v.min_load(), 0u);
  EXPECT_EQ(v.nonempty_bins(), 0u);
  EXPECT_DOUBLE_EQ(v.psi(), 0.0);
  expect_metrics_match(v);
  // The cleared state is fully usable again.
  v.add_ball(1);
  EXPECT_EQ(v.max_load(), 1u);
  expect_metrics_match(v);
}

TEST(BinState, LoadsViewMatchesState) {
  BinState v(3);
  v.add_ball(2);
  v.add_ball(2);
  const auto& loads = v.loads();
  EXPECT_EQ(loads, (std::vector<std::uint32_t>{0, 0, 2}));
}

TEST(BinState, MetricsStayExactUnderRandomChurn) {
  const std::uint32_t n = 32;
  BinState state(n);
  rng::Engine gen(123);
  std::vector<std::uint32_t> mirror(n, 0);
  std::uint64_t balls = 0;
  for (int step = 0; step < 5000; ++step) {
    const bool add = balls == 0 || rng::bernoulli(gen, 0.55);
    if (add) {
      const auto bin = static_cast<std::uint32_t>(rng::uniform_below(gen, n));
      state.add_ball(bin);
      ++mirror[bin];
      ++balls;
    } else {
      const std::uint32_t bin = state.sample_nonempty(gen);
      state.remove_ball(bin);
      --mirror[bin];
      --balls;
    }
    ASSERT_EQ(state.balls(), balls);
    ASSERT_EQ(state.loads(), mirror);
    if (step % 97 == 0) expect_metrics_match(state);
  }
  expect_metrics_match(state);
}

TEST(BinState, TailCountsMatchScan) {
  BinState state(8);
  rng::Engine gen(7);
  for (int i = 0; i < 40; ++i) {
    state.add_ball(static_cast<std::uint32_t>(rng::uniform_below(gen, 8)));
  }
  for (std::uint32_t k = 0; k <= state.max_load() + 2; ++k) {
    std::uint32_t scan = 0;
    for (const auto l : state.loads()) scan += l >= k ? 1 : 0;
    EXPECT_EQ(state.bins_with_load_at_least(k), scan) << "k=" << k;
  }
}

TEST(BinState, RemoveFromEmptyBinThrows) {
  BinState state(4);
  EXPECT_THROW(state.remove_ball(0), std::invalid_argument);
  state.add_ball(1);
  EXPECT_THROW(state.remove_ball(0), std::invalid_argument);
  state.remove_ball(1);
  EXPECT_EQ(state.balls(), 0u);
}

TEST(BinState, SampleNonemptyRequiresABall) {
  BinState state(4);
  rng::Engine gen(1);
  EXPECT_THROW((void)state.sample_nonempty(gen), std::logic_error);
  state.add_ball(2);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(state.sample_nonempty(gen), 2u);
}

// ---------------------------------------------------------------------------
// Weighted balls
// ---------------------------------------------------------------------------

TEST(BinStateWeighted, WeightedAddEqualsRepeatedUnitAdds) {
  BinState atomic(5), unit(5);
  atomic.add_ball(2, 7);
  for (int i = 0; i < 7; ++i) unit.add_ball(2);
  EXPECT_EQ(atomic.loads(), unit.loads());
  EXPECT_EQ(atomic.balls(), unit.balls());
  EXPECT_EQ(atomic.max_load(), unit.max_load());
  EXPECT_EQ(atomic.min_load(), unit.min_load());
  EXPECT_DOUBLE_EQ(atomic.psi(), unit.psi());
  EXPECT_NEAR(atomic.log_phi(), unit.log_phi(), 1e-12);
  atomic.remove_ball(2, 3);
  for (int i = 0; i < 3; ++i) unit.remove_ball(2);
  EXPECT_EQ(atomic.loads(), unit.loads());
  EXPECT_DOUBLE_EQ(atomic.psi(), unit.psi());
}

TEST(BinStateWeighted, RejectsZeroAndOverflowingWeights) {
  BinState state(2);
  EXPECT_THROW(state.add_ball(0, 0), std::invalid_argument);
  EXPECT_THROW(state.remove_ball(0, 0), std::invalid_argument);
  state.add_ball(0, 3);
  EXPECT_THROW(state.remove_ball(0, 4), std::invalid_argument);  // > load
  // 1000 + (2^32 - 500) wraps 32 bits: rejected before any mutation.
  state.add_ball(1, 1000);
  EXPECT_THROW(state.add_ball(1, std::numeric_limits<std::uint32_t>::max() - 500),
               std::invalid_argument);
  // The failed calls left nothing behind.
  EXPECT_EQ(state.load(0), 3u);
  EXPECT_EQ(state.load(1), 1000u);
  EXPECT_EQ(state.balls(), 1003u);
}

TEST(BinStateWeighted, MetricsStayExactUnderRandomWeightedChurn) {
  const std::uint32_t n = 24;
  BinState state(n);
  rng::Engine gen(2024);
  std::vector<std::uint32_t> mirror(n, 0);
  std::uint64_t balls = 0;
  for (int step = 0; step < 4000; ++step) {
    const bool add = balls == 0 || rng::bernoulli(gen, 0.55);
    const auto bin = static_cast<std::uint32_t>(rng::uniform_below(gen, n));
    if (add) {
      const auto w = static_cast<std::uint32_t>(1 + rng::uniform_below(gen, 9));
      state.add_ball(bin, w);
      mirror[bin] += w;
      balls += w;
    } else if (mirror[bin] > 0) {
      const auto w =
          static_cast<std::uint32_t>(1 + rng::uniform_below(gen, mirror[bin]));
      state.remove_ball(bin, w);
      mirror[bin] -= w;
      balls -= w;
    }
    ASSERT_EQ(state.balls(), balls);
    ASSERT_EQ(state.loads(), mirror);
    if (step % 97 == 0) expect_metrics_match(state);
  }
  expect_metrics_match(state);
}

// ---------------------------------------------------------------------------
// Heterogeneous capacities
// ---------------------------------------------------------------------------

void expect_norm_metrics_match(const BinState& state, double tol = 1e-9) {
  std::vector<std::uint32_t> caps(state.capacities());
  if (caps.empty()) caps.assign(state.n(), 1);
  const NormalizedLoadMetrics batch =
      compute_normalized_metrics(state.loads(), caps, state.balls());
  EXPECT_DOUBLE_EQ(state.max_norm_load(), batch.max_norm);
  EXPECT_DOUBLE_EQ(state.min_norm_load(), batch.min_norm);
  EXPECT_NEAR(state.norm_gap(), batch.gap_norm, tol);
  EXPECT_NEAR(state.weighted_psi(), batch.weighted_psi,
              tol * (1.0 + std::abs(batch.weighted_psi)));
  EXPECT_DOUBLE_EQ(state.norm_average(), batch.norm_average);
}

TEST(BinStateCapacity, RejectsBadCapacities) {
  EXPECT_THROW(BinState(std::vector<std::uint32_t>{}), std::invalid_argument);
  EXPECT_THROW(BinState(std::vector<std::uint32_t>{1, 0, 2}), std::invalid_argument);
}

TEST(BinStateCapacity, UniformStateReportsUnitCapacities) {
  BinState state(4);
  EXPECT_TRUE(state.uniform_capacity());
  EXPECT_EQ(state.total_capacity(), 4u);
  EXPECT_EQ(state.capacity(3), 1u);
  EXPECT_TRUE(state.capacities().empty());
  state.add_ball(0, 5);
  EXPECT_DOUBLE_EQ(state.max_norm_load(), 5.0);
  EXPECT_DOUBLE_EQ(state.weighted_psi(), state.psi());
  expect_norm_metrics_match(state);
}

TEST(BinStateCapacity, AllEqualCapacitiesStayUniform) {
  BinState state(std::vector<std::uint32_t>{4, 4, 4});
  EXPECT_TRUE(state.uniform_capacity());
  EXPECT_EQ(state.total_capacity(), 12u);
  state.add_ball(1, 6);
  EXPECT_DOUBLE_EQ(state.max_norm_load(), 1.5);
  expect_norm_metrics_match(state);
}

TEST(BinStateCapacity, HeterogeneousNormalizedMetrics) {
  BinState state(std::vector<std::uint32_t>{1, 2, 4, 8});
  EXPECT_FALSE(state.uniform_capacity());
  EXPECT_EQ(state.total_capacity(), 15u);
  state.add_ball(3, 8);  // l/c = 1 in the biggest bin
  state.add_ball(0, 2);  // l/c = 2 in the smallest
  EXPECT_DOUBLE_EQ(state.max_norm_load(), 2.0);
  EXPECT_DOUBLE_EQ(state.min_norm_load(), 0.0);
  EXPECT_DOUBLE_EQ(state.norm_gap(), 2.0);
  expect_norm_metrics_match(state);
}

TEST(BinStateCapacity, NormalizedMetricsStayExactUnderWeightedChurn) {
  rng::Engine gen(77);
  std::vector<std::uint32_t> caps(20);
  for (auto& c : caps) c = static_cast<std::uint32_t>(1 + rng::uniform_below(gen, 9));
  BinState state(caps);
  std::vector<std::uint32_t> mirror(caps.size(), 0);
  std::uint64_t balls = 0;
  for (int step = 0; step < 3000; ++step) {
    const bool add = balls == 0 || rng::bernoulli(gen, 0.6);
    const auto bin =
        static_cast<std::uint32_t>(rng::uniform_below(gen, caps.size()));
    if (add) {
      const auto w = static_cast<std::uint32_t>(1 + rng::uniform_below(gen, 5));
      state.add_ball(bin, w);
      mirror[bin] += w;
      balls += w;
    } else if (mirror[bin] > 0) {
      state.remove_ball(bin);
      --mirror[bin];
      --balls;
    }
    ASSERT_EQ(state.loads(), mirror);
    if (step % 83 == 0) {
      expect_metrics_match(state);
      expect_norm_metrics_match(state);
    }
  }
  expect_norm_metrics_match(state);
}

TEST(BinStateCapacity, SamplesProportionallyToCapacity) {
  BinState state(std::vector<std::uint32_t>{1, 3});
  rng::Engine gen(5);
  std::uint64_t hits1 = 0;
  const int draws = 40'000;
  for (int i = 0; i < draws; ++i) {
    hits1 += state.sample_capacity_proportional(gen) == 1 ? 1 : 0;
  }
  // P(bin 1) = 3/4; a 40k-draw binomial stays within ~1.5% w.h.p.
  EXPECT_NEAR(static_cast<double>(hits1) / draws, 0.75, 0.015);
}

// ---------------------------------------------------------------------------
// clear() == fresh construction
// ---------------------------------------------------------------------------

// Drive two states — one cleared after a messy history, one freshly built —
// through the same operation sequence and demand bit-identical behavior,
// including the nonempty-index departures that read nonempty_pos_.
void expect_clear_equals_fresh(BinState& used, BinState fresh) {
  used.clear();
  rng::Engine gen_a(99), gen_b(99);
  for (int step = 0; step < 800; ++step) {
    const bool add_draw = rng::bernoulli(gen_a, 0.5);
    (void)rng::bernoulli(gen_b, 0.5);  // keep the engines in lockstep
    const bool add = fresh.balls() == 0 || add_draw;
    if (add) {
      const auto bin =
          static_cast<std::uint32_t>(rng::uniform_below(gen_a, fresh.n()));
      const auto bin_b =
          static_cast<std::uint32_t>(rng::uniform_below(gen_b, fresh.n()));
      ASSERT_EQ(bin, bin_b);
      const auto w = static_cast<std::uint32_t>(1 + rng::uniform_below(gen_a, 4));
      (void)rng::uniform_below(gen_b, 4);
      used.add_ball(bin, w);
      fresh.add_ball(bin, w);
    } else {
      const std::uint32_t victim_a = used.sample_nonempty(gen_a);
      const std::uint32_t victim_b = fresh.sample_nonempty(gen_b);
      ASSERT_EQ(victim_a, victim_b);
      used.remove_ball(victim_a);
      fresh.remove_ball(victim_b);
    }
    ASSERT_EQ(used.loads(), fresh.loads());
    ASSERT_EQ(used.balls(), fresh.balls());
    ASSERT_EQ(used.max_load(), fresh.max_load());
    ASSERT_EQ(used.min_load(), fresh.min_load());
    ASSERT_EQ(used.nonempty_bins(), fresh.nonempty_bins());
    ASSERT_DOUBLE_EQ(used.psi(), fresh.psi());
  }
  EXPECT_DOUBLE_EQ(used.weighted_psi(), fresh.weighted_psi());
  EXPECT_DOUBLE_EQ(used.max_norm_load(), fresh.max_norm_load());
}

TEST(BinState, ClearedStateIndistinguishableFromFresh) {
  const std::uint32_t n = 16;
  BinState used(n);
  rng::Engine gen(31);
  for (int i = 0; i < 500; ++i) {
    used.add_ball(static_cast<std::uint32_t>(rng::uniform_below(gen, n)),
                  static_cast<std::uint32_t>(1 + rng::uniform_below(gen, 3)));
  }
  while (used.balls() > 40) used.remove_ball(used.sample_nonempty(gen));
  expect_clear_equals_fresh(used, BinState(n));
}

TEST(BinStateCapacity, ClearKeepsCapacitiesAndResetsLoads) {
  const std::vector<std::uint32_t> caps{1, 2, 4, 8, 1, 2, 4, 8};
  BinState used(caps);
  rng::Engine gen(41);
  for (int i = 0; i < 300; ++i) {
    used.add_ball(static_cast<std::uint32_t>(rng::uniform_below(gen, caps.size())));
  }
  expect_clear_equals_fresh(used, BinState(caps));
  EXPECT_EQ(used.capacities(), caps);
  EXPECT_EQ(used.total_capacity(), 30u);
}

// ---------------------------------------------------------------------------
// add_balls == add_ball in a loop, bit for bit
// ---------------------------------------------------------------------------

// Every observable of two states fed the same balls, compared exactly
// (the doubles too: the lean commit must replay add_ball's FP order).
void expect_twins_identical(const BinState& batch, const BinState& loop) {
  EXPECT_EQ(batch.copy_loads(), loop.copy_loads());
  EXPECT_EQ(batch.level_counts(), loop.level_counts());  // length included
  EXPECT_EQ(batch.min_load(), loop.min_load());
  EXPECT_EQ(batch.max_load(), loop.max_load());
  EXPECT_EQ(batch.balls(), loop.balls());
  EXPECT_EQ(batch.sum_squares(), loop.sum_squares());
  EXPECT_EQ(batch.psi(), loop.psi());
  EXPECT_EQ(batch.phi_weight(), loop.phi_weight());
  EXPECT_EQ(batch.log_phi(), loop.log_phi());
  EXPECT_EQ(batch.weighted_psi(), loop.weighted_psi());
  EXPECT_EQ(batch.max_norm_load(), loop.max_norm_load());
  EXPECT_EQ(batch.min_norm_load(), loop.min_norm_load());
  EXPECT_EQ(batch.compact_promotions(), loop.compact_promotions());
  EXPECT_EQ(batch.compact_demotions(), loop.compact_demotions());
}

void add_to_twins(BinState& batch, BinState& loop,
                  const std::vector<std::uint32_t>& bins) {
  batch.add_balls(bins.data(), bins.size());
  for (const std::uint32_t bin : bins) loop.add_ball(bin);
  expect_twins_identical(batch, loop);
}

std::vector<std::uint32_t> random_bins(rng::Engine& gen, std::uint32_t n,
                                       std::size_t count) {
  std::vector<std::uint32_t> bins(count);
  for (std::uint32_t& bin : bins) {
    bin = static_cast<std::uint32_t>(rng::uniform_below(gen, n));
  }
  return bins;
}

TEST(BinStateAddBalls, CompactLanesCrossThePromotionThreshold) {
  // Bin 0 climbs from lane 252 to load 256 inside one call, between random
  // neighbours: 252 -> 253 -> 254 commit lean, 254 -> 255 promotes into the
  // side-table through the exact path, 255 -> 256 updates the side-table.
  BinState batch(8, StateLayout::kCompact);
  BinState loop(8, StateLayout::kCompact);
  add_to_twins(batch, loop, std::vector<std::uint32_t>(252, 0));
  EXPECT_EQ(batch.load(0), 252u);
  rng::Engine gen(17);
  std::vector<std::uint32_t> bins = random_bins(gen, 8, 40);
  for (std::size_t k = 0; k < 4; ++k) bins[5 + 9 * k] = 0;
  const std::uint32_t zeros = static_cast<std::uint32_t>(
      std::count(bins.begin(), bins.end(), 0u));
  add_to_twins(batch, loop, bins);
  EXPECT_EQ(batch.load(0), 252u + zeros);
  EXPECT_GE(batch.load(0), 256u);
  EXPECT_GT(batch.compact_promotions(), 0u);
  // Further calls past the threshold, and after removals (trailing zero
  // levels above the max, min moving down and up again).
  add_to_twins(batch, loop, random_bins(gen, 8, 2'000));
  for (std::uint32_t bin = 0; bin < 8; ++bin) {
    batch.remove_ball(bin, batch.load(bin) / 2 + 1);
    loop.remove_ball(bin, loop.load(bin) / 2 + 1);
  }
  expect_twins_identical(batch, loop);
  add_to_twins(batch, loop, random_bins(gen, 8, 500));
}

TEST(BinStateAddBalls, RepeatedBinWithinOneCall) {
  BinState batch(6, StateLayout::kCompact);
  BinState loop(6, StateLayout::kCompact);
  add_to_twins(batch, loop, {3, 3, 3, 5, 3, 0, 3, 3});
  EXPECT_EQ(batch.load(3), 6u);
  EXPECT_EQ(batch.max_load(), 6u);
  EXPECT_EQ(batch.min_load(), 0u);
}

TEST(BinStateAddBalls, WideLayoutTakesTheExactPath) {
  BinState batch(64, StateLayout::kWide);
  BinState loop(64, StateLayout::kWide);
  rng::Engine gen(23);
  for (int call = 0; call < 5; ++call) {
    add_to_twins(batch, loop, random_bins(gen, 64, 1'000));
  }
  EXPECT_EQ(batch.loads(), loop.loads());
  EXPECT_EQ(batch.nonempty_bins(), loop.nonempty_bins());
}

TEST(BinStateAddBalls, HeterogeneousCapacitiesTakeTheExactPath) {
  const std::vector<std::uint32_t> caps{1, 2, 4, 8, 1, 2, 4, 8};
  for (const StateLayout layout : {StateLayout::kCompact, StateLayout::kWide}) {
    BinState batch(caps, layout);
    BinState loop(caps, layout);
    rng::Engine gen(29);
    for (int call = 0; call < 4; ++call) {
      add_to_twins(batch, loop, random_bins(gen, 8, 300));
    }
  }
}

TEST(BinStateAddBalls, EmptyCallChangesNothing) {
  for (const StateLayout layout : {StateLayout::kCompact, StateLayout::kWide}) {
    BinState batch(4, layout);
    BinState loop(4, layout);
    add_to_twins(batch, loop, {});
    add_to_twins(batch, loop, {1, 2, 2});
    batch.add_balls(nullptr, 0);
    expect_twins_identical(batch, loop);
  }
}

}  // namespace
}  // namespace bbb::core
