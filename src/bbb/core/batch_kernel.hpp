#pragma once
/// \file batch_kernel.hpp
/// The batch placement kernel: places waves of balls against the compact
/// 8-bit BinState slab with one bulk RNG block per wave, a vectorized
/// word->bin map + rejection scan (core/simd/), and a lean metric
/// commit — bit-identical to the scalar place_one stream (pinned, every
/// SIMD tier, by the cross-path matrix in
/// tests/integration/path_matrix_test.cpp).
///
/// ## Wave anatomy
///
/// Per wave the kernel (a) drains the rule's ProbeLookahead then draws
/// fresh engine words into a buffer, (b) maps every buffered word to the
/// bin it will address if consumed as a candidate with the ISA backend's
/// `map_words` (Lemire's multiply is position-independent, the same
/// trick the lookahead's prefetch uses), which simultaneously screens
/// the whole wave for Lemire rejection candidates, (c) prefetches every
/// mapped lane, and (d) walks the buffer committing balls against the
/// *live* lane slab. Steps (a)-(c) run in kMapChunk-word chunks so each
/// chunk's lane prefetches age behind the next chunk's serial RNG fill,
/// and the walk (d) is branchless on random data — load compares, tie
/// selects, and the data-dependent cursor advance are all arithmetic,
/// with the next ball's candidates preloaded for both possible advances
/// before the current ball's tie resolves (see place_greedy2).
///
/// Reading the live lanes is what makes in-wave duplicates a non-event:
/// two balls probing the same bin serialize through the slab exactly as
/// the scalar stream would — no snapshot to go stale, no conflict
/// detection pass. The only wave-level validation left is the rejection
/// scan (probability ~ fill * n / 2^64 per wave — astronomically rare,
/// but a rejected draw shifts every later word's meaning, so the whole
/// wave replays through the exact scalar path over the same buffered
/// words: a FIFO source chaining buffer -> lookahead -> engine).
/// A ball whose candidate lane is near the 255 side-table promotion
/// (> kFastLoadMax) takes the exact add_ball in place — per ball, not
/// per wave. Validation failures cost speed, never correctness.
///
/// The fast commit is `batch_add_unit_lane` — the weight-1 add_ball
/// replayed in identical FP order, so Ψ and lnΦ stay bit-equal.
///
/// ## Randomness-consumption bookkeeping
///
/// greedy[2] consumes 2 words per ball plus a tie word when the candidate
/// loads are equal, so the word→ball assignment is data-dependent; the
/// commit walk tracks it exactly (cursor advances 2 + eq, tie bit read
/// at k + 2). left[2] consumes exactly 2 words per ball (Vöcking's
/// tie-break is deterministic), one-choice exactly one. Words drawn into
/// a wave but not consumed (at most 2, when ties exhaust the buffer
/// mid-ball) are handed back to the ProbeLookahead (`push_residue`), so
/// a place_one following a place_batch sees exactly the word a pure
/// place_one stream would — the engine-exclusivity contract of
/// core/probe.hpp, which is also why eligibility requires the lookahead
/// to be engaged.
///
/// Families: one-choice, greedy[2], left[2] on compact uniform-capacity
/// states. greedy[d>2] and left[d>2] interleave data-dependent tie draws
/// (greedy) or more than two group streams per ball (left) and route
/// through the base place_one loop; heterogeneous capacities carry
/// per-class metric state the lean commit does not maintain, so they are
/// ineligible by construction (see `eligible`).

#include <cstdint>
#include <vector>

#include "bbb/core/bin_state.hpp"
#include "bbb/core/probe.hpp"
#include "bbb/rng/engine.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::core {

/// Wave-at-a-time placement over a compact BinState. One instance per
/// rule (scratch buffers are reused across calls; counters accumulate).
class BatchPlacer {
 public:
  /// Words buffered per wave. 256 words is ~128 greedy[2] balls: deep
  /// enough that the bulk map + prefetch pass runs far ahead of the
  /// commit walk (4x the lookahead's distance), shallow enough that the
  /// word block and its bin map stay resident in L1.
  static constexpr std::uint32_t kWaveWords = 256;

  /// Highest lane value the fast commit accepts (BinState::kFastLaneMax):
  /// a higher lane routes that ball through the exact add_ball.
  static constexpr std::uint8_t kFastLoadMax = BinState::kFastLaneMax;

  /// True when the kernel may place on this state: compact layout (the
  /// 8-bit slab is the vector operand), uniform unit capacities (the lean
  /// commit maintains no per-class metrics), and an engaged lookahead
  /// (the engine-exclusivity promise that licenses drawing words ahead).
  [[nodiscard]] static bool eligible(const BinState& state,
                                     const ProbeLookahead& lookahead) noexcept {
    return state.layout() == StateLayout::kCompact &&
           state.capacities().empty() && lookahead.enabled();
  }

  /// Place `count` one-choice balls (1 word each). `probes` is the rule's
  /// probe counter; `out`, when non-null, receives each ball's bin.
  void place_one_choice(BinState& state, std::uint64_t count,
                        ProbeLookahead& lookahead, rng::Engine& gen,
                        std::uint64_t& probes, std::uint32_t* out);

  /// Place `count` greedy[2] balls (2 words + 1 per tie).
  void place_greedy2(BinState& state, std::uint64_t count,
                     ProbeLookahead& lookahead, rng::Engine& gen,
                     std::uint64_t& probes, std::uint32_t* out);

  /// Place `count` left[2] balls (exactly 2 words each; group 0 is
  /// [0, n/2), group 1 is [n/2, n), matching LeftDRule::group_range).
  void place_left2(BinState& state, std::uint64_t count,
                   ProbeLookahead& lookahead, rng::Engine& gen,
                   std::uint64_t& probes, std::uint32_t* out);

  /// Kernel-path place_batch calls — core.batch.batches.
  [[nodiscard]] std::uint64_t batches() const noexcept { return batches_; }
  /// Waves processed (fast or fallback) — core.batch.waves.
  [[nodiscard]] std::uint64_t waves() const noexcept { return waves_; }
  /// Balls committed by the wave walk — core.batch.fast_balls.
  [[nodiscard]] std::uint64_t fast_balls() const noexcept { return fast_balls_; }
  /// Balls replayed through the exact scalar path (a wave holding a
  /// Lemire rejection candidate) — core.batch.fallback_balls.
  [[nodiscard]] std::uint64_t fallback_balls() const noexcept {
    return fallback_balls_;
  }

 private:
  void ensure_scratch();

  std::vector<std::uint64_t> words_;  // kWaveWords + 2 (tie-bit overread pad)
  std::vector<std::uint32_t> bins_;

  std::uint64_t batches_ = 0;
  std::uint64_t waves_ = 0;
  std::uint64_t fast_balls_ = 0;
  std::uint64_t fallback_balls_ = 0;
};

}  // namespace bbb::core
