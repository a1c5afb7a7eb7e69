#pragma once
/// \file adaptive.hpp
/// The adaptive protocol — the paper's primary contribution (Figure 1).
///
/// The i-th ball (1-based) samples uniform bins until it finds one with load
/// strictly less than i/n + 1, and is placed there. Unlike threshold, the
/// acceptance bound follows the number of balls placed *so far*, so m never
/// needs to be known in advance, and the load vector stays smooth the whole
/// way through:
///   * max load <= ceil(m/n) + 1 by construction;
///   * Theorem 3.1: expected allocation time O(m);
///   * Corollary 3.5: E[Phi] = O(n), E[Psi] = O(n) and max-min gap
///     O(log n) w.h.p. at every stage — versus threshold's polynomial gap
///     (Lemma 4.2).
///
/// Integer form: load < i/n + 1 over integer loads <=> load <= ceil(i/n).
/// The bound therefore bumps by one exactly when a stage of n balls
/// completes; the total-count variant tracks it incrementally (no division
/// per ball). A generalized integer `slack` c gives acceptance load <=
/// ceil(i/n)+(c-1); c = 0 is the "no +1" variant the paper notes
/// degenerates to a coupon collector with Theta(m log n) allocation time.
///
/// Under *departures* (the dyn engine) the ball index i becomes ambiguous —
/// the paper never faces this fork. `AdaptiveCount` names both readings:
///   * kTotal — i = balls ever placed, the literal Figure 1 counter. The
///     bound is monotone and goes vacuous under sustained churn.
///   * kNet — i = balls currently in the system; the bound stays tight
///     forever. Identical to kTotal on arrivals-only streams, so both are
///     batch-equivalent to the adaptive protocol (bench_dyn_churn measures
///     the separation once balls leave).

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"

namespace bbb::core {

/// Which ball index feeds the acceptance bound (see file comment).
enum class AdaptiveCount : std::uint8_t { kTotal, kNet };

/// Streaming adaptive rule: what applications embed when the total number
/// of jobs is unknown (dispatchers, hash tables that grow).
class AdaptiveRule final : public PlacementRule {
 public:
  /// \param slack integer slack c, default 1 (the paper);
  /// \param count which ball index feeds the bound (default the paper's
  ///        total counter); \param base spec-canonical name stem
  ///        ("adaptive", "adaptive-net", "adaptive-total").
  explicit AdaptiveRule(std::uint32_t slack = 1,
                        AdaptiveCount count = AdaptiveCount::kTotal,
                        std::string base = "adaptive");

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] AdaptiveCount count_mode() const noexcept { return count_; }

  /// Acceptance bound the *next* ball will use (load <= bound accepted).
  [[nodiscard]] std::uint64_t accept_bound(const BinState& state) const noexcept;

 protected:
  /// Always terminates: for slack >= 1 a below-average bin always
  /// qualifies; for slack == 0 the bound ceil(i/n) - 1 still admits at
  /// least one bin because the i - 1 (or fewer) balls present cannot fill
  /// all n bins to ceil(i/n).
  std::uint32_t do_place(BinState& state, std::uint32_t weight,
                         rng::Engine& gen) override;

 private:
  std::uint32_t slack_;
  AdaptiveCount count_;
  std::string base_;
  // kTotal only: the bound for ball total_placed()+1, bumped incrementally
  // each time a stage of n placements completes (no division per ball).
  std::uint64_t bound_;
  std::uint32_t stage_fill_ = 0;
};

}  // namespace bbb::core
