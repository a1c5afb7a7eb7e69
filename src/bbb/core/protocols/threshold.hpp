#pragma once
/// \file threshold.hpp
/// The one accept-below-a-bound rule behind the paper's two protocols and
/// their extensions. Every ball samples bins until it finds one with load
/// strictly less than c/n + slack, and is placed there. Over integer loads
/// that test is
///   load <= ceil(c/n) + slack - 1,
/// a single comparison in the hot loop. The families differ only in the
/// count c (the rule's *clock*) and, for skewed-adaptive, the probe source:
///
///   spec                      clock     c
///   threshold[s]              kFixed    m, provisioned up front (Figure 2)
///   adaptive[s], -total[s]    kPlaced   placements so far + 1 (Figure 1)
///   stale-adaptive[delta]     kPlaced   p + 1, p republished every delta
///                                       placements (slack 1)
///   skewed-adaptive[s*100]    kPlaced   placements so far + 1, Zipf(s)
///                                       probes (slack 1)
///   adaptive-net[s]           kNet      balls currently present + 1
///   doubling-threshold[g]     kDoubling guess M, doubled once M balls
///                                       were placed (slack 1)
///
/// threshold (Czumaj & Stemann 2001): max load ceil(m/n) + slack by
/// construction; Theorem 4.1 gives m + O(m^{3/4} n^{1/4}) probes w.h.p.
/// for slack 1. It needs m up front; under the dyn engine the registry
/// supplies an m hint (n when unknown), the bound stays fixed, and once
/// every bin is above it place_one throws in O(1) instead of spinning.
///
/// adaptive, the paper's protocol: c follows the ball index, so m need not
/// be known; max load ceil(m/n) + 1, expected O(m) probes (Theorem 3.1)
/// and an O(log n) gap at every stage (Corollary 3.5). Slack 0 demands
/// max load ceil(m/n) at coupon-collector cost Theta(m log n); it still
/// terminates because c - 1 balls cannot fill all n bins to ceil(c/n).
/// Under departures the ball index has two readings: adaptive and
/// adaptive-total keep counting placements (the bound drifts upward under
/// sustained churn), adaptive-net counts the balls present (the bound
/// stays tight). On arrivals-only streams all three are identical.
///
/// stale-adaptive relaxes "each ball must know how many balls have been
/// placed": the count is republished only every delta placements. Because
/// ceil(c/n) is constant within a stage of n balls, any delta <= n yields
/// the *bit-identical* run (tests/protocols/stale_adaptive_test.cpp);
/// delta > n is rejected, as neither that identity nor termination holds.
///
/// skewed-adaptive probes Zipf(s) bins, a hash with a skewed range. The
/// load guarantee is distribution-free; allocation time degrades instead.
///
/// doubling-threshold is the folklore *wrong* fix for threshold's known-m
/// requirement: the bound follows the current guess M, up to nearly 2m,
/// so max load degrades to about 2 ceil(m/n) + 1 past a doubling boundary.
///
/// Bound updates for the placement clocks happen in a cold refresh at a
/// precomputed placement count: once per stage for adaptive, at the
/// first publication of a new stage for stale-adaptive, and at each
/// doubling. The only per-ball bound computation is adaptive-net's, which
/// reads the live ball count.

#include <optional>
#include <string>

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/rng/zipf.hpp"

namespace bbb::core {

/// Streaming threshold rule: accept load <= ceil(c/n) + slack - 1, with c
/// set by the clock (see the file comment).
class ThresholdRule final : public PlacementRule {
 public:
  /// Which count feeds the acceptance bound.
  enum class Clock : std::uint8_t { kFixed, kPlaced, kNet, kDoubling };

  /// \param name spec-canonical name (the registry's); \param n bins;
  /// \param count kFixed: the provisioned total m; kPlaced: the period
  ///        delta between publications of the placement count (1 =
  ///        fresh); kDoubling: the first guess M; kNet: unused;
  /// \param slack integer slack (1 = the paper's +1);
  /// \param zipf_s Zipf exponent of the probe distribution (none = uniform).
  /// \throws std::invalid_argument if n == 0, a kFixed slack 0 with m == 0,
  ///         a kPlaced delta == 0 or delta > n, a kDoubling M == 0, or
  ///         zipf_s < 0.
  ThresholdRule(std::string name, std::uint32_t n, Clock clock, std::uint64_t count,
                std::uint32_t slack = 1, std::optional<double> zipf_s = std::nullopt);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::uint32_t bound_n() const noexcept override { return n_; }

  /// The acceptance bound the *next* ball uses (load <= bound accepted).
  [[nodiscard]] std::uint32_t accept_bound(const BinState& state) const noexcept {
    return clock_ == Clock::kNet ? bound_for(state.balls() + 1, n_, slack_) : bound_;
  }

  /// ceil(c/n) + slack - 1 in uint64, saturated at UINT32_MAX (loads are
  /// uint32, so a saturated bound accepts exactly the bins the true one
  /// does). Requires c >= 1 or slack >= 1.
  [[nodiscard]] static std::uint32_t bound_for(std::uint64_t c, std::uint32_t n,
                                               std::uint32_t slack) noexcept;

 protected:
  /// \throws std::logic_error if every bin is above the bound (only a
  /// fixed bound can get there: the deadlock adaptive avoids).
  std::uint32_t do_place(BinState& state, std::uint32_t weight,
                         rng::Engine& gen) override;

 private:
  /// Cold path at placement count refresh_at_: publish the new count,
  /// recompute the bound and the next refresh point.
  void refresh(std::uint64_t placed);

  std::string name_;
  std::uint32_t n_;
  std::uint32_t slack_;
  Clock clock_;
  std::uint64_t period_ = 1;  // kPlaced: placements between publications
  std::uint32_t bound_ = 0;
  // Placement count after which refresh() runs; 0 = never (kFixed, kNet).
  std::uint64_t refresh_at_ = 0;
  std::optional<rng::ZipfDist> zipf_;
};

}  // namespace bbb::core
