#pragma once
/// \file threshold.hpp
/// The threshold protocol (Czumaj & Stemann 2001; Figure 2 of the paper):
/// every ball repeatedly samples uniform bins until it finds one with load
/// strictly less than m/n + 1, and is placed there. The max load is
/// ceil(m/n) + 1 by construction; Theorem 4.1 of the paper shows the
/// allocation time is m + O(m^{3/4} n^{1/4}) w.h.p. for every m >= n.
///
/// Integer form of the acceptance test: for integer loads,
///   load < m/n + 1   <=>   load <= ceil(m/n),
/// so the hot loop is a single integer comparison. A generalized integer
/// `slack` c replaces the test with load <= ceil(m/n) + (c-1):
///   c = 1 is the paper's protocol; c = 0 demands a *perfectly* tight
///   allocation (max load ceil(m/n)) at coupon-collector cost; larger c
///   trades balance for fewer probes.
///
/// The rule needs the total ball count m up-front — that is the
/// protocol's defining limitation vs. adaptive. Under the dyn engine the
/// registry supplies an *m hint* (target net population; defaults to n
/// when unknown), the bound stays fixed, and departures can re-open
/// capacity; if the population ever exceeds what the fixed bound admits,
/// place_one detects the deadlock in O(1) and throws instead of spinning.

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"

namespace bbb::core {

/// Streaming threshold rule with the fixed acceptance bound derived from
/// (m, n, slack).
class ThresholdRule final : public PlacementRule {
 public:
  /// \param n bins; \param m total balls the bound is provisioned for;
  /// \param slack integer slack c (see file comment), default 1 (paper).
  /// \throws std::invalid_argument if n == 0, or if slack == 0 with m == 0.
  ThresholdRule(std::uint32_t n, std::uint64_t m, std::uint32_t slack = 1);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t bound_n() const noexcept override { return n_; }
  /// The integer acceptance bound: a bin is accepted iff load <= bound.
  [[nodiscard]] std::uint32_t accept_bound() const noexcept { return bound_; }
  [[nodiscard]] std::uint64_t m() const noexcept { return m_; }

 protected:
  /// \throws std::logic_error if every bin already exceeds the bound (the
  /// fixed bound cannot admit another ball — the deadlock adaptive avoids).
  std::uint32_t do_place(BinState& state, std::uint32_t weight,
                         rng::Engine& gen) override;

 private:
  std::uint32_t n_;
  std::uint64_t m_;
  std::uint32_t slack_;
  std::uint32_t bound_;
};

}  // namespace bbb::core
