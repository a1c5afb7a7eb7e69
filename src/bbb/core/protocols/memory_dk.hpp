#pragma once
/// \file memory_dk.hpp
/// The (d,k)-memory protocol (Mitzenmacher, Prabhakar, Shah 2002): each ball
/// examines d fresh uniform bins plus the k best bins remembered from the
/// previous ball, joins the least loaded of the d+k, and the k least loaded
/// of the candidate set (after placement) are remembered for the next ball.
/// For d = k = 1 and m = n the max load is ln ln n / (2 ln phi_2) + O(1),
/// matching Vöcking's lower bound — with only d probes of *fresh* randomness
/// per ball, so allocation time Theta(m) for constant d.
///
/// The memory cache is the canonical example of *rule-local placement
/// state*: it remembers bin ids, not balls, so it survives departures
/// unchanged (the loads are re-read from the BinState at each decision).

#include <vector>

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"

namespace bbb::core {

/// Streaming (d,k)-memory rule.
class MemoryDKRule final : public PlacementRule {
 public:
  /// \throws std::invalid_argument if d == 0 or k == 0.
  MemoryDKRule(std::uint32_t d, std::uint32_t k);

  [[nodiscard]] std::string name() const override;
  /// Currently remembered bins (size <= k; empty before the first ball).
  [[nodiscard]] const std::vector<std::uint32_t>& memory() const noexcept {
    return memory_;
  }

 protected:
  std::uint32_t do_place(BinState& state, std::uint32_t weight,
                         rng::Engine& gen) override;

 private:
  std::uint32_t d_;
  std::uint32_t k_;
  std::vector<std::uint32_t> memory_;
  std::vector<std::uint32_t> candidates_;  // scratch, avoids per-ball allocs
};

}  // namespace bbb::core
