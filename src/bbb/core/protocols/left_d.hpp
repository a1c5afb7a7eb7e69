#pragma once
/// \file left_d.hpp
/// left[d] (Vöcking): the bins are split into d contiguous groups of
/// (nearly) equal size; each ball samples one uniform bin per group and
/// joins the least loaded, with ties broken *asymmetrically* toward the
/// leftmost group. This seemingly small change improves the max load to
/// m/n + ln ln n / (d ln phi_d) + O(1), where phi_d is the generalized
/// golden ratio — exponentially better in d than greedy[d]'s ln d.

#include <utility>
#include <vector>

#include "bbb/core/batch_kernel.hpp"
#include "bbb/core/probe.hpp"
#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/rng/alias_table.hpp"

namespace bbb::core {

/// Streaming left[d] rule. Bound to a fixed n (the group partition). On a
/// heterogeneous-capacity state the per-group probe is proportional to
/// capacity within the group (one alias table per group, built lazily from
/// the first state seen — rules are single-run) and the comparison uses
/// normalized loads l/c, still with Vöcking's strict always-go-left ties.
class LeftDRule final : public PlacementRule {
 public:
  /// \throws std::invalid_argument if n == 0, d == 0, or d > n.
  LeftDRule(std::uint32_t n, std::uint32_t d);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t bound_n() const noexcept override { return n_; }
  [[nodiscard]] std::uint32_t d() const noexcept { return d_; }
  [[nodiscard]] bool supports_weights() const noexcept override { return true; }

  /// Half-open bin range [first, last) of group g (for tests).
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> group_range(
      std::uint32_t g) const;

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
  /// d == 2 on an eligible compact state runs the wave kernel (exactly
  /// two words per ball, deterministic tie-break — see
  /// core/batch_kernel.hpp); other d stay on the place_one loop.
  void do_place_batch(BinState& state, std::uint64_t count, rng::Engine& gen,
                      std::uint32_t* bins_out) override;

 private:
  std::uint32_t n_;
  std::uint32_t d_;
  ProbeLookahead lookahead_;
  BatchPlacer batch_;
  std::vector<rng::AliasTable> group_samplers_;  // lazily built, heterogeneous only
  const BinState* sampled_state_ = nullptr;      // the state the tables were built for
};

}  // namespace bbb::core
