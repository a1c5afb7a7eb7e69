#pragma once
/// \file one_choice.hpp
/// The classical single-choice process: each ball goes to one uniformly
/// random bin. Baseline for every comparison — max load is
/// log n / log log n * (1 + o(1)) at m = n (Raab & Steger) and
/// m/n + Theta(sqrt((m/n) log n)) in the heavily loaded case.

#include "bbb/core/batch_kernel.hpp"
#include "bbb/core/probe.hpp"
#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"

namespace bbb::core {

/// Streaming single-choice rule (stateless beyond the base counters and
/// the probe lookahead). Probes uniformly on uniform-capacity states and
/// proportionally to c_i on heterogeneous ones; weight-w chains commit
/// atomically. Under an exclusive engine the uniform probe reads the raw
/// word stream ahead and prefetches upcoming bins (bit-identical
/// placements, see core/probe.hpp); place_batch on an eligible compact
/// state runs the wave kernel (core/batch_kernel.hpp).
class OneChoiceRule final : public PlacementRule {
 public:
  [[nodiscard]] std::string name() const override { return "one-choice"; }
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
  ProbeLookahead lookahead_;
  BatchPlacer batch_;
};

}  // namespace bbb::core
