#include "bbb/core/protocols/threshold.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "bbb/core/probe.hpp"

namespace bbb::core {

ThresholdRule::ThresholdRule(std::uint32_t n, std::uint64_t m, std::uint32_t slack)
    : n_(n), m_(m), slack_(slack) {
  if (n == 0) throw std::invalid_argument("ThresholdRule: n must be positive");
  // Acceptance: load < m/n + slack over integers <=> load <= ceil(m/n) + slack - 1.
  // slack == 0 (bound ceil(m/n) - 1) still guarantees termination for the
  // first m balls, because m - 1 already placed balls cannot fill all n
  // bins to ceil(m/n) — except the degenerate m == 0 case where the bound
  // would underflow.
  if (slack == 0 && m == 0) {
    throw std::invalid_argument("ThresholdRule: slack 0 needs m > 0");
  }
  // Computed in uint64 and saturated at UINT32_MAX: loads are uint32, so a
  // saturated bound still accepts exactly the bins the true bound accepts.
  // Capping ceil(m/n) at 2^32 keeps the sum exact below the saturation
  // point; sum >= 1 because the slack-0, m-0 case was rejected above.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  const std::uint64_t sum = std::min(ceil_div(m, n), kMax + 1) + slack;
  bound_ = static_cast<std::uint32_t>(std::min(sum - 1, kMax));
}

std::string ThresholdRule::name() const {
  return slack_ == 1 ? "threshold" : "threshold[" + std::to_string(slack_) + "]";
}

std::uint32_t ThresholdRule::do_place(BinState& state, std::uint32_t /*weight*/,
                                    rng::Engine& gen) {
  // A fixed bound cannot adapt: once every bin exceeds it the probe loop
  // would never terminate. Detect that state in O(1) instead of spinning.
  if (state.min_load() > bound_) {
    throw std::logic_error("ThresholdRule: every bin is above the acceptance bound " +
                           std::to_string(bound_));
  }
  const std::uint32_t bin =
      probe_until(gen, state.n(), probes_,
                  [this, &state](std::uint32_t b) { return state.load(b) <= bound_; });
  state.add_ball(bin);
  return bin;
}

}  // namespace bbb::core
