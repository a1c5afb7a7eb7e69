#pragma once
/// \file doubling_threshold.hpp
/// The *wrong* fix for threshold's known-m requirement, included to make
/// the paper's design point concrete.
///
/// threshold needs m up-front. The folklore remedy is guess-and-double:
/// run threshold with a guess M, and when M balls have arrived, double M
/// and continue. This keeps O(m) allocation time, but the acceptance bound
/// jumps to ceil(M/n) for the *current* guess M, which can be nearly 2m/n —
/// so the final max load degrades to roughly 2·ceil(m/n) + 1 whenever m
/// lands just past a doubling boundary. adaptive (threshold i/n + 1) is the
/// correct fix: same O(m) time, bound ceil(m/n) + 1 for every m, no
/// schedule cliff. bench_ablation_unknown_m measures the gap.
///
/// Under departures the guess doubles on the *total* number of balls ever
/// placed (the schedule is a monotone clock, like the paper's ball index),
/// so sustained churn keeps widening the bound — the same pathology the
/// adaptive total-count variant exhibits, measured in bench_dyn_churn.

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"

namespace bbb::core {

/// Streaming guess-and-double threshold rule.
class DoublingThresholdRule final : public PlacementRule {
 public:
  /// \param n bins; \param initial_guess starting M (0 = default n).
  /// \throws std::invalid_argument if n == 0.
  explicit DoublingThresholdRule(std::uint32_t n, std::uint64_t initial_guess = 0);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t bound_n() const noexcept override { return n_; }
  /// Current guess M (doubles each time the placement count reaches it).
  [[nodiscard]] std::uint64_t guess() const noexcept { return guess_; }
  /// Acceptance bound in force: load <= ceil(M/n).
  [[nodiscard]] std::uint32_t accept_bound() const noexcept { return bound_; }

  /// ceil(guess / n) computed in uint64 and saturated at UINT32_MAX.
  [[nodiscard]] static std::uint32_t bound_for(std::uint64_t guess,
                                               std::uint32_t n) noexcept;
  /// 2 * guess, saturated at UINT64_MAX instead of wrapping to 0.
  [[nodiscard]] static std::uint64_t doubled(std::uint64_t guess) noexcept;

 protected:
  std::uint32_t do_place(BinState& state, std::uint32_t weight,
                         rng::Engine& gen) override;

 private:
  std::uint32_t n_;
  std::uint64_t initial_guess_;
  std::uint64_t guess_;
  std::uint32_t bound_;
};

}  // namespace bbb::core
