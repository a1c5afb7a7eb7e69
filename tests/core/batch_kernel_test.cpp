/// Scalar-vs-kernel lockstep for the batch placement layer: place_batch
/// must be bit-identical to the same number of place_one calls — same
/// bins ball for ball, same counters, same incremental metrics (the FP
/// accumulations included) — for four kernel families, every batch size around
/// the wave boundaries, every compiled SIMD tier the CPU supports, and
/// states straddling the 255 -> 256 side-table promotion. Plus the ISA
/// backends pinned byte-for-byte against the scalar reference, and the
/// place_one/place_batch interleave (the lookahead residue hand-back).
/// The cross-path matrix (tests/integration/path_matrix_test.cpp) runs
/// the same lockstep over every registry spec.

#include "bbb/core/batch_kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bbb/core/protocols/d_choice.hpp"
#include "bbb/core/protocols/left_d.hpp"
#include "bbb/core/protocols/one_choice.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/core/simd/batch_ops.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::core {
namespace {

using RuleFactory = std::function<std::unique_ptr<PlacementRule>(std::uint32_t n)>;

struct Family {
  const char* name;
  RuleFactory make;
};

/// The four families the satellite sweep names. greedy[3] has no vector
/// kernel (data-dependent reservoir tie draws) — its place_batch is the
/// base loop, and this suite pins that the dispatch seam stays exact.
const Family kFamilies[] = {
    {"one-choice", [](std::uint32_t) { return std::make_unique<OneChoiceRule>(); }},
    {"greedy[2]", [](std::uint32_t) { return std::make_unique<DChoiceRule>(2); }},
    {"greedy[3]", [](std::uint32_t) { return std::make_unique<DChoiceRule>(3); }},
    {"left[2]", [](std::uint32_t n) { return std::make_unique<LeftDRule>(n, 2); }},
};

/// Every observable of the two runs must be *identical*, not close: the
/// kernel replays add_ball's FP operation order, so even lnPhi matches
/// bit for bit.
void expect_states_equal(const BinState& a, const BinState& b) {
  ASSERT_EQ(a.n(), b.n());
  EXPECT_EQ(a.balls(), b.balls());
  EXPECT_EQ(a.max_load(), b.max_load());
  EXPECT_EQ(a.min_load(), b.min_load());
  EXPECT_EQ(a.level_counts(), b.level_counts());
  EXPECT_EQ(a.psi(), b.psi());
  EXPECT_EQ(a.log_phi(), b.log_phi());
  EXPECT_EQ(a.copy_loads(), b.copy_loads());
}

/// Drive `m` balls through place_one (reference) and place_batch (kernel
/// path when eligible) from the same seed and compare every placement.
void expect_lockstep(const Family& family, std::uint32_t n, std::uint64_t m,
                     std::uint64_t seed = 42,
                     StateLayout layout = StateLayout::kCompact) {
  rng::Engine gen_ref(seed);
  BinState ref_state(n, layout);
  auto ref_rule = family.make(n);
  ref_rule->set_engine_exclusive(true);
  std::vector<std::uint32_t> ref_bins(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    ref_bins[i] = ref_rule->place_one(ref_state, gen_ref);
  }

  rng::Engine gen_bat(seed);
  BinState bat_state(n, layout);
  auto bat_rule = family.make(n);
  bat_rule->set_engine_exclusive(true);
  std::vector<std::uint32_t> bat_bins(m);
  bat_rule->place_batch(bat_state, m, gen_bat, bat_bins.data());

  for (std::uint64_t i = 0; i < m; ++i) {
    ASSERT_EQ(ref_bins[i], bat_bins[i])
        << family.name << " n=" << n << " m=" << m << " ball " << i;
  }
  EXPECT_EQ(ref_rule->probes(), bat_rule->probes());
  EXPECT_EQ(ref_rule->total_placed(), bat_rule->total_placed());
  expect_states_equal(ref_state, bat_state);
}

TEST(BatchKernel, LockstepAcrossBatchSizesOneToSixtyFour) {
  for (const Family& family : kFamilies) {
    for (std::uint64_t m = 1; m <= 64; ++m) {
      expect_lockstep(family, /*n=*/97, m, /*seed=*/1000 + m);
    }
  }
}

TEST(BatchKernel, LockstepAroundWaveBoundaries) {
  // kWaveWords = 256 words is 128 greedy[2]/left[2] balls or 256
  // one-choice balls per wave; straddle both boundaries and a multi-wave
  // run. Small n forces dense in-wave duplicates — the live-lane commit
  // must serialize them exactly as the scalar stream does.
  const std::uint64_t sizes[] = {127, 128, 129, 255, 256, 257, 1000};
  for (const Family& family : kFamilies) {
    for (const std::uint32_t n : {2u, 5u, 64u, 4096u}) {
      for (const std::uint64_t m : sizes) {
        expect_lockstep(family, n, m, /*seed=*/7 * n + m);
      }
    }
  }
}

TEST(BatchKernel, EveryBallTakesTheWaveOnLargeFastPathState) {
  // The live-lane commit serializes in-wave duplicates instead of
  // falling back, and a power-of-two bound never raises a Lemire
  // rejection — so on this state every single ball must take the wave
  // walk, checked by the kernel counters.
  DChoiceRule rule(2);
  BinState state(1u << 20, StateLayout::kCompact);
  rng::Engine gen(3);
  rule.set_engine_exclusive(true);
  rule.place_batch(state, 20000, gen);
  ASSERT_NE(rule.batch_kernel(), nullptr);
  EXPECT_EQ(rule.batch_kernel()->fast_balls(), 20000u);
  EXPECT_EQ(rule.batch_kernel()->fallback_balls(), 0u);
}

TEST(BatchKernel, LockstepAcrossSideTablePromotion) {
  // m = 300 * n pushes every lane through the 255 -> 256 promotion: the
  // saturation guard must hand the near-ceiling waves to the exact scalar
  // path, and placements must stay identical straight through it.
  for (const Family& family : kFamilies) {
    expect_lockstep(family, /*n=*/8, /*m=*/8 * 300, /*seed=*/11);
    expect_lockstep(family, /*n=*/64, /*m=*/64 * 260, /*seed=*/13);
  }
}

TEST(BatchKernel, LockstepAcrossSimdTiers) {
  const auto ceiling = static_cast<int>(simd::detected_simd_tier());
  for (int t = 0; t <= ceiling; ++t) {
    simd::set_simd_tier_override(static_cast<simd::SimdTier>(t));
    for (const Family& family : kFamilies) {
      expect_lockstep(family, /*n=*/1u << 14, /*m=*/5000, /*seed=*/17 + t);
    }
  }
  simd::clear_simd_tier_override();
}

TEST(BatchKernel, InterleavedPlaceOneAndBatchMatchesPureStream) {
  // The residue hand-back: a place_one right after a place_batch must see
  // exactly the word a pure place_one stream would (the kernel returns
  // its undrained read-ahead to the lookahead).
  for (const Family& family : kFamilies) {
    const std::uint32_t n = 512;
    rng::Engine gen_ref(99);
    BinState ref_state(n, StateLayout::kCompact);
    auto ref_rule = family.make(n);
    ref_rule->set_engine_exclusive(true);
    std::vector<std::uint32_t> ref_bins;
    for (int i = 0; i < 700; ++i) {
      ref_bins.push_back(ref_rule->place_one(ref_state, gen_ref));
    }

    rng::Engine gen_mix(99);
    BinState mix_state(n, StateLayout::kCompact);
    auto mix_rule = family.make(n);
    mix_rule->set_engine_exclusive(true);
    std::vector<std::uint32_t> mix_bins;
    const std::uint64_t chunks[] = {1, 130, 1, 1, 64, 3, 200, 300};
    for (const std::uint64_t chunk : chunks) {
      if (chunk == 1) {
        mix_bins.push_back(mix_rule->place_one(mix_state, gen_mix));
      } else {
        std::vector<std::uint32_t> got(chunk);
        mix_rule->place_batch(mix_state, chunk, gen_mix, got.data());
        mix_bins.insert(mix_bins.end(), got.begin(), got.end());
      }
    }
    ASSERT_EQ(ref_bins.size(), mix_bins.size());
    for (std::size_t i = 0; i < ref_bins.size(); ++i) {
      ASSERT_EQ(ref_bins[i], mix_bins[i]) << family.name << " ball " << i;
    }
    expect_states_equal(ref_state, mix_state);
  }
}

TEST(BatchKernel, IneligibleStatesTakeTheBaseLoop) {
  // Wide layout and heterogeneous capacities must not engage the kernel —
  // and must still match the scalar stream (the base loop IS that
  // stream). The kernel counters stay at zero.
  for (const Family& family : kFamilies) {
    expect_lockstep(family, /*n=*/256, /*m=*/500, /*seed=*/5,
                    StateLayout::kWide);
  }
  DChoiceRule rule(2);
  BinState wide(256, StateLayout::kWide);
  rng::Engine gen(5);
  rule.set_engine_exclusive(true);
  rule.place_batch(wide, 500, gen);
  ASSERT_NE(rule.batch_kernel(), nullptr);
  EXPECT_EQ(rule.batch_kernel()->batches(), 0u);

  // Without the engine-exclusivity promise the kernel may not read ahead.
  DChoiceRule plain(2);
  BinState compact(256, StateLayout::kCompact);
  plain.place_batch(compact, 100, gen);
  EXPECT_EQ(plain.batch_kernel()->batches(), 0u);

  // All-equal-but-explicit capacities are uniform yet carry per-class
  // metric state the lean commit skips: must route to the base loop.
  BinState capped(std::vector<std::uint32_t>(64, 3), StateLayout::kCompact);
  DChoiceRule capped_rule(2);
  capped_rule.set_engine_exclusive(true);
  capped_rule.place_batch(capped, 100, gen);
  EXPECT_EQ(capped_rule.batch_kernel()->batches(), 0u);
}

// -- ISA backend primitives -------------------------------------------------

TEST(BatchOps, TierNamesRoundTrip) {
  EXPECT_EQ(simd::to_string(simd::SimdTier::kScalar), "scalar");
  EXPECT_EQ(simd::to_string(simd::SimdTier::kAvx2), "avx2");
  EXPECT_EQ(simd::to_string(simd::SimdTier::kAvx512bw), "avx512bw");
  EXPECT_EQ(simd::parse_simd_tier("scalar"), simd::SimdTier::kScalar);
  EXPECT_EQ(simd::parse_simd_tier("avx2"), simd::SimdTier::kAvx2);
  EXPECT_EQ(simd::parse_simd_tier("avx512bw"), simd::SimdTier::kAvx512bw);
  EXPECT_THROW((void)simd::parse_simd_tier("sse2"), std::invalid_argument);
}

TEST(BatchOps, DispatchNeverExceedsDetection) {
  EXPECT_LE(static_cast<int>(simd::active_simd_tier()),
            static_cast<int>(simd::detected_simd_tier()));
  simd::set_simd_tier_override(simd::SimdTier::kScalar);
  EXPECT_EQ(simd::active_simd_tier(), simd::SimdTier::kScalar);
  EXPECT_EQ(simd::active_ops().tier, simd::SimdTier::kScalar);
  simd::clear_simd_tier_override();
}

/// 2^64 mod bound — the Lemire rejection threshold callers pass in.
std::uint64_t lemire_threshold(std::uint32_t bound) {
  const auto b = static_cast<std::uint64_t>(bound);
  return (0 - b) % b;
}

TEST(BatchOps, BackendsMatchScalarReferenceByteForByte) {
  // Every tier the CPU supports, against the scalar reference (which is
  // itself pinned against the plain 128-bit definition), across lengths
  // covering empty, sub-vector, vector-boundary, and multi-vector arrays
  // of both backends (4 and 8 words per step) plus odd counts, and
  // stream pairs covering the one-choice/greedy[2] shape (identical
  // streams), the left[2] shape (split bounds and bases), and both
  // power-of-two (threshold 0, never rejects) and non-power bounds.
  rng::Engine gen(123);
  const auto ceiling = static_cast<int>(simd::detected_simd_tier());
  const std::uint32_t lengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 100, 256};
  const simd::MapStream pairs[][2] = {
      {{97, 0, lemire_threshold(97)}, {97, 0, lemire_threshold(97)}},
      {{1u << 20, 0, 0}, {1u << 20, 0, 0}},
      {{50, 0, lemire_threshold(50)}, {51, 50, lemire_threshold(51)}},
      {{1, 0, 0}, {1, 0, 0}},
  };
  for (const auto& streams : pairs) {
    for (const std::uint32_t count : lengths) {
      for (const bool plant_zero : {false, true}) {
        std::vector<std::uint64_t> words(count);
        for (auto& w : words) w = gen();
        // A zero word is a rejection candidate for every non-power-of-two
        // bound (low64(0 * b) = 0 < threshold), so planting one exercises
        // the reject=true return without hunting for a ~b/2^64 event.
        if (plant_zero && count > 2) words[count - 2] = 0;
        std::vector<std::uint32_t> bins_ref(count);
        const bool rej_ref = simd::scalar_ops().map_words(
            words.data(), count, streams[0], streams[1], bins_ref.data());
        bool rej_naive = false;
        for (std::uint32_t i = 0; i < count; ++i) {
          const simd::MapStream& s = (i & 1u) != 0 ? streams[1] : streams[0];
          const auto prod = static_cast<__uint128_t>(words[i]) * s.bound;
          EXPECT_EQ(bins_ref[i],
                    s.base + static_cast<std::uint32_t>(prod >> 64))
              << "i=" << i;
          rej_naive |= static_cast<std::uint64_t>(prod) < s.threshold;
        }
        EXPECT_EQ(rej_ref, rej_naive);
        for (int t = 1; t <= ceiling; ++t) {
          simd::set_simd_tier_override(static_cast<simd::SimdTier>(t));
          const simd::SimdOps& ops = simd::active_ops();
          ASSERT_EQ(static_cast<int>(ops.tier), t);
          std::vector<std::uint32_t> bins(count);
          const bool rej = ops.map_words(words.data(), count, streams[0],
                                         streams[1], bins.data());
          EXPECT_EQ(rej, rej_ref) << "tier " << t << " count " << count;
          EXPECT_EQ(bins, bins_ref) << "tier " << t << " count " << count;
          simd::clear_simd_tier_override();
        }
      }
    }
  }
}

TEST(BatchKernel, EligibilityPredicate) {
  BinState compact(16, StateLayout::kCompact);
  BinState wide(16, StateLayout::kWide);
  BinState capped(std::vector<std::uint32_t>(16, 2), StateLayout::kCompact);
  ProbeLookahead on;
  on.set_enabled(true);
  ProbeLookahead off;
  EXPECT_TRUE(BatchPlacer::eligible(compact, on));
  EXPECT_FALSE(BatchPlacer::eligible(compact, off));
  EXPECT_FALSE(BatchPlacer::eligible(wide, on));
  EXPECT_FALSE(BatchPlacer::eligible(capped, on));
}

}  // namespace
}  // namespace bbb::core
