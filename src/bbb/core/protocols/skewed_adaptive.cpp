#include "bbb/core/protocols/skewed_adaptive.hpp"

namespace bbb::core {

SkewedAdaptiveRule::SkewedAdaptiveRule(std::uint32_t n, double s)
    : n_(n), zipf_(n, s) {}

std::string SkewedAdaptiveRule::name() const {
  // The registry spec carries s scaled by 100; reconstruct it for the
  // round-trip (s() values come from integer/100 so this is exact).
  const auto s100 = static_cast<std::uint32_t>(zipf_.s() * 100.0 + 0.5);
  return "skewed-adaptive[" + std::to_string(s100) + "]";
}

std::uint32_t SkewedAdaptiveRule::do_place(BinState& state, std::uint32_t /*weight*/,
                                    rng::Engine& gen) {
  const std::uint32_t n = state.n();
  for (;;) {
    const std::uint32_t bin = zipf_(gen);
    ++probes_;
    if (state.load(bin) <= bound_) {
      state.add_ball(bin);
      if (++stage_fill_ == n) {
        stage_fill_ = 0;
        ++bound_;
      }
      return bin;
    }
  }
}

}  // namespace bbb::core
