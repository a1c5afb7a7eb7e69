#include "bbb/core/protocols/doubling_threshold.hpp"

#include <algorithm>
#include <limits>
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
  bound_ = bound_for(guess_, n);
}

std::uint32_t DoublingThresholdRule::bound_for(std::uint64_t guess,
                                               std::uint32_t n) noexcept {
  // Loads are uint32, so a bound saturated at UINT32_MAX accepts exactly
  // the bins the true bound accepts; truncating would give a bound below
  // every load and a run that never finishes.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  return static_cast<std::uint32_t>(std::min(ceil_div(guess, n), kMax));
}

std::uint64_t DoublingThresholdRule::doubled(std::uint64_t guess) noexcept {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  return guess > kMax / 2 ? kMax : guess * 2;
}

std::string DoublingThresholdRule::name() const {
  return "doubling-threshold[" + std::to_string(initial_guess_) + "]";
}

std::uint32_t DoublingThresholdRule::do_place(BinState& state, std::uint32_t /*weight*/,
                                    rng::Engine& gen) {
  const std::uint32_t n = state.n();
  // Guess exhausted: double and recompute the bound before placing. The
  // clock is the monotone total placement count, not the net population.
  constexpr std::uint64_t kMaxGuess = std::numeric_limits<std::uint64_t>::max();
  while (total_placed() >= guess_ && guess_ != kMaxGuess) {
    guess_ = doubled(guess_);
    bound_ = bound_for(guess_, n);
  }
  const std::uint32_t bin = probe_until(
      gen, n, probes_,
      [this, &state](std::uint32_t b) { return state.load(b) <= bound_; });
  state.add_ball(bin);
  return bin;
}

}  // namespace bbb::core
