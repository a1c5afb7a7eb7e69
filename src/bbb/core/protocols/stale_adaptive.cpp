#include "bbb/core/protocols/stale_adaptive.hpp"

#include <stdexcept>

#include "bbb/core/probe.hpp"

namespace bbb::core {

StaleAdaptiveRule::StaleAdaptiveRule(std::uint32_t n, std::uint32_t delta)
    : n_(n), delta_(delta) {
  if (n == 0) throw std::invalid_argument("StaleAdaptiveRule: n must be positive");
  if (delta == 0) {
    throw std::invalid_argument("StaleAdaptiveRule: delta must be positive");
  }
  if (delta > n) {
    throw std::invalid_argument(
        "StaleAdaptiveRule: delta must be <= n (else the stale bound can "
        "lag more than one stage and termination is no longer guaranteed)");
  }
}

std::string StaleAdaptiveRule::name() const {
  return "stale-adaptive[" + std::to_string(delta_) + "]";
}

std::uint32_t StaleAdaptiveRule::do_place(BinState& state, std::uint32_t /*weight*/,
                                    rng::Engine& gen) {
  const std::uint32_t n = state.n();
  const std::uint32_t bin = probe_until(
      gen, n, probes_,
      [this, &state](std::uint32_t b) { return state.load(b) <= bound_; });
  state.add_ball(bin);
  // total_placed() still counts the previous placements only (the wrapper
  // increments after do_place returns), so the ball just placed is number
  // total_placed() + 1 — the monotone broadcast clock.
  const std::uint64_t placed = total_placed() + 1;
  if (placed - published_ >= delta_) {
    published_ = placed;
    // Bound for the next ball under the published count p:
    // ceil((p+1)/n) = p/n + 1 in integer arithmetic.
    bound_ = static_cast<std::uint32_t>(published_ / n) + 1;
  }
  return bin;
}

}  // namespace bbb::core
