#pragma once
/// \file self_balancing.hpp
/// Self-balancing allocation after Czumaj, Riley & Scheideler (RANDOM'03):
/// an initial greedy[2] pass records both bin choices of every ball, then
/// iterative *self-balancing steps* let balls switch to their alternative
/// choice whenever that strictly improves balance (alternative load at
/// least 2 below the current bin — after the move the maximum of the pair
/// has strictly decreased). CRS prove the fixpoint reaches max load
/// ceil(m/n) (+1 in a parameter regime) with O(m) + poly(n) reallocations.
///
/// As a streaming rule: `place_one` is the recorded greedy[2] step (the
/// recorded choice pairs are the rule-local placement state), and the
/// balancing sweeps run in `finalize` — a batch-only post-pass, so
/// `batch_equivalent() == false`. Under the dyn engine the rule behaves
/// as greedy[2] with per-ball bookkeeping that departures retire.
///
/// AllocationResult::reallocations counts ball moves,
/// AllocationResult::rounds counts full passes over the balls, and
/// completed == false if `max_passes` elapsed before the fixpoint.

#include <vector>

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"

namespace bbb::core {

/// Streaming rule: greedy[2] placement recording both choices per ball;
/// finalize() runs the CRS balancing sweeps to a fixpoint.
class SelfBalancingRule final : public PlacementRule {
 public:
  /// \param max_passes bound on full self-balancing sweeps in finalize().
  /// \throws std::invalid_argument if max_passes == 0.
  explicit SelfBalancingRule(std::uint32_t max_passes = 64);

  [[nodiscard]] std::string name() const override { return "self-balancing"; }
  [[nodiscard]] bool batch_equivalent() const noexcept override { return false; }

  void on_remove(BinState& state, std::uint32_t bin) override;
  void finalize(BinState& state, rng::Engine& gen) override;

  [[nodiscard]] std::uint32_t max_passes() const noexcept { return max_passes_; }
  /// High-water mark of simultaneously tracked balls. Departed balls'
  /// slots are recycled, so long steady-state churn runs stay O(max
  /// population) in memory — tested in tests/dyn/allocator_test.cpp.
  [[nodiscard]] std::uint64_t tracked_balls() const noexcept {
    return current_.size();
  }

 protected:
  std::uint32_t do_place(BinState& state, std::uint32_t weight,
                         rng::Engine& gen) override;

 private:
  std::uint32_t max_passes_;
  // Per-ball bookkeeping, indexed by slot. On the batch path slots are
  // assigned in arrival order and never freed, so the finalize sweep
  // visits balls in the original CRS order; under the streaming driver a
  // departed ball's slot goes on the free list for the next arrival.
  std::vector<std::uint32_t> choice_a_;
  std::vector<std::uint32_t> choice_b_;
  std::vector<std::uint32_t> current_;
  std::vector<char> alive_;
  std::vector<std::uint64_t> free_slots_;
  // bin -> live balls currently sitting there (maintained only until
  // finalize; departures pop the most recent resident of the bin).
  std::vector<std::vector<std::uint64_t>> residents_;
};

}  // namespace bbb::core
