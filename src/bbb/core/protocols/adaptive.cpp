#include "bbb/core/protocols/adaptive.hpp"

#include <utility>

#include "bbb/core/probe.hpp"

namespace bbb::core {

AdaptiveRule::AdaptiveRule(std::uint32_t slack, AdaptiveCount count, std::string base)
    : slack_(slack), count_(count), base_(std::move(base)) {
  // Ball 1 has ceil(1/n) = 1, so its bound is 1 + slack - 1 = slack
  // (slack >= 1), or 0 for the slack == 0 coupon-collector variant.
  bound_ = slack_ == 0 ? 0 : slack_;
}

std::string AdaptiveRule::name() const {
  return slack_ == 1 ? base_ : base_ + "[" + std::to_string(slack_) + "]";
}

std::uint64_t AdaptiveRule::accept_bound(const BinState& state) const noexcept {
  if (count_ == AdaptiveCount::kTotal) return bound_;
  const std::uint64_t i = state.balls() + 1;
  const std::uint64_t base = ceil_div(i, state.n());
  // base >= 1 since i >= 1, so the slack-0 variant never underflows.
  return slack_ == 0 ? base - 1 : base + slack_ - 1;
}

std::uint32_t AdaptiveRule::do_place(BinState& state, std::uint32_t /*weight*/,
                                    rng::Engine& gen) {
  const std::uint32_t n = state.n();
  const std::uint64_t bound = accept_bound(state);
  const std::uint32_t bin =
      probe_until(gen, n, probes_,
                  [&state, bound](std::uint32_t b) { return state.load(b) <= bound; });
  state.add_ball(bin);
  // ceil(i/n) bumps by one each time a full stage of n placements
  // completes (only the total counter advances by stages; the net bound is
  // recomputed from the live count each ball).
  if (++stage_fill_ == n) {
    stage_fill_ = 0;
    ++bound_;
  }
  return bin;
}

}  // namespace bbb::core
