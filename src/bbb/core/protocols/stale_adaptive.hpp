#pragma once
/// \file stale_adaptive.hpp
/// adaptive with a *stale* ball counter — an extension probing the paper's
/// one informational assumption.
///
/// The paper notes that "during the execution of adaptive, each ball must
/// know how many balls have been already placed" (comparable to the memory
/// model of Mitzenmacher et al.). In a distributed deployment that counter
/// arrives by broadcast and lags. StaleAdaptive models it: the acceptance
/// bound is computed from the last *published* placement count, and the
/// count is only re-published every `delta` placements.
///
/// Result (delta <= n) — stronger than one might expect: the execution is
/// *bit-identical* to fresh adaptive. The acceptance bound ceil(i/n) is
/// constant within each stage of n balls, so any counter that lags by less
/// than a full stage still computes the same bound for every ball
/// (proved in tests/protocols/stale_adaptive_test.cpp over a delta sweep;
/// demonstrated in bench_ablation_stale). In other words, the paper's
/// "each ball must know how many balls have been already placed" only
/// requires the count to within n — broadcasting once per stage is free.
///
/// delta > n is rejected: the stale bound could lag a full stage, where
/// neither the pigeonhole termination argument nor the identity holds.
///
/// Under departures the published clock keeps counting *placements* (the
/// broadcast counter is monotone); like the adaptive total-count variant,
/// the bound therefore drifts upward under sustained churn.

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"

namespace bbb::core {

/// Streaming adaptive rule with a counter published every delta placements.
class StaleAdaptiveRule final : public PlacementRule {
 public:
  /// \param n bins; \param delta publication interval (1 = fresh counter,
  /// i.e. plain adaptive). \throws std::invalid_argument if n == 0,
  /// delta == 0, or delta > n (termination would no longer be guaranteed).
  StaleAdaptiveRule(std::uint32_t n, std::uint32_t delta);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t bound_n() const noexcept override { return n_; }
  /// The acceptance bound currently in force (from the stale counter).
  [[nodiscard]] std::uint32_t accept_bound() const noexcept { return bound_; }
  /// Placement count as of the last publication.
  [[nodiscard]] std::uint64_t published_count() const noexcept { return published_; }

 protected:
  std::uint32_t do_place(BinState& state, std::uint32_t weight,
                         rng::Engine& gen) override;

 private:
  std::uint32_t n_;
  std::uint32_t delta_;
  std::uint64_t published_ = 0;
  std::uint32_t bound_ = 1;  // bound for the first ball: ceil(1/n) = 1
};

}  // namespace bbb::core
