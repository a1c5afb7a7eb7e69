#include "bbb/core/protocols/doubling_threshold.hpp"

#include <stdexcept>

#include "bbb/core/probe.hpp"

namespace bbb::core {

DoublingThresholdRule::DoublingThresholdRule(std::uint32_t n,
                                             std::uint64_t initial_guess)
    : n_(n), initial_guess_(initial_guess),
      guess_(initial_guess == 0 ? n : initial_guess) {
  if (n == 0) {
    throw std::invalid_argument("DoublingThresholdRule: n must be positive");
  }
  bound_ = static_cast<std::uint32_t>(ceil_div(guess_, n));
}

std::string DoublingThresholdRule::name() const {
  return "doubling-threshold[" + std::to_string(initial_guess_) + "]";
}

std::uint32_t DoublingThresholdRule::do_place(BinState& state, std::uint32_t /*weight*/,
                                    rng::Engine& gen) {
  const std::uint32_t n = state.n();
  // Guess exhausted: double and recompute the bound before placing. The
  // clock is the monotone total placement count, not the net population.
  while (total_placed() >= guess_) {
    guess_ *= 2;
    bound_ = static_cast<std::uint32_t>(ceil_div(guess_, n));
  }
  const std::uint32_t bin = probe_until(
      gen, n, probes_,
      [this, &state](std::uint32_t b) { return state.load(b) <= bound_; });
  state.add_ball(bin);
  return bin;
}

}  // namespace bbb::core
