#pragma once
/// \file d_choice.hpp
/// greedy[d] (Azar, Broder, Karlin, Upfal): each ball samples d bins
/// independently and uniformly (with replacement) and joins the least
/// loaded, ties broken uniformly at random among the tied candidates.
/// Max load: m/n + ln ln n / ln d + O(1) (Berenbrink et al. 2006).
/// Allocation time: exactly d probes per ball.

#include "bbb/core/batch_kernel.hpp"
#include "bbb/core/probe.hpp"
#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"

namespace bbb::core {

/// Streaming greedy[d] rule. Under an exclusive engine the uniform-probe
/// path reads the raw word stream ahead and prefetches upcoming candidate
/// bins (bit-identical placements, see core/probe.hpp); for d == 2,
/// place_batch on an eligible compact state runs the wave kernel
/// (core/batch_kernel.hpp — d > 2 interleaves data-dependent reservoir
/// tie draws with the candidate words and stays on the place_one loop).
class DChoiceRule final : public PlacementRule {
 public:
  /// \throws std::invalid_argument if d == 0.
  explicit DChoiceRule(std::uint32_t d);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t d() const noexcept { return d_; }
  [[nodiscard]] bool supports_weights() const noexcept override { return true; }
  void set_engine_exclusive(bool exclusive) noexcept override {
    lookahead_.set_enabled(exclusive);
  }
  [[nodiscard]] const ProbeLookahead* lookahead() const noexcept override {
    return &lookahead_;
  }
  [[nodiscard]] const BatchPlacer* batch_kernel() const noexcept override {
    return &batch_;
  }

 protected:
  std::uint32_t do_place(BinState& state, std::uint32_t weight,
                         rng::Engine& gen) override;
  void do_place_batch(BinState& state, std::uint64_t count, rng::Engine& gen,
                      std::uint32_t* bins_out) override;

 private:
  std::uint32_t d_;
  ProbeLookahead lookahead_;
  BatchPlacer batch_;
};

}  // namespace bbb::core
