#include "bbb/core/protocols/self_balancing.hpp"

#include <stdexcept>

#include "bbb/rng/engine.hpp"

namespace bbb::core {

SelfBalancingRule::SelfBalancingRule(std::uint32_t max_passes)
    : max_passes_(max_passes) {
  if (max_passes == 0) {
    throw std::invalid_argument("SelfBalancingRule: max_passes must be positive");
  }
}

std::uint32_t SelfBalancingRule::do_place(BinState& state, std::uint32_t /*weight*/,
                                    rng::Engine& gen) {
  if (residents_.size() != state.n()) residents_.resize(state.n());
  // greedy[2], remembering both choices of this ball. The draw order (a,
  // b, then one tie-break word) matches the original CRS phase 1 so the
  // batch results are bit-identical to the pre-refactor protocol.
  const auto a = static_cast<std::uint32_t>(rng::uniform_below(gen, state.n()));
  const auto b = static_cast<std::uint32_t>(rng::uniform_below(gen, state.n()));
  probes_ += 2;
  std::uint32_t pick;
  if (state.load(a) < state.load(b)) {
    pick = a;
  } else if (state.load(b) < state.load(a)) {
    pick = b;
  } else {
    pick = rng::uniform_below(gen, 2) == 0 ? a : b;
  }
  std::uint64_t ball;
  if (free_slots_.empty()) {
    ball = choice_a_.size();
    choice_a_.push_back(a);
    choice_b_.push_back(b);
    current_.push_back(pick);
    alive_.push_back(1);
  } else {
    ball = free_slots_.back();
    free_slots_.pop_back();
    choice_a_[ball] = a;
    choice_b_[ball] = b;
    current_[ball] = pick;
    alive_[ball] = 1;
  }
  residents_[pick].push_back(ball);
  state.add_ball(pick);
  return pick;
}

void SelfBalancingRule::on_remove(BinState& /*state*/, std::uint32_t bin) {
  // Retire the most recently placed live ball of that bin and recycle its
  // slot (batch runs never remove, so the sweep order there is untouched).
  if (residents_.size() <= bin || residents_[bin].empty()) return;
  const std::uint64_t ball = residents_[bin].back();
  residents_[bin].pop_back();
  alive_[ball] = 0;
  free_slots_.push_back(ball);
}

void SelfBalancingRule::finalize(BinState& state, rng::Engine& /*gen*/) {
  if (state.balls() == 0) return;  // nothing to balance; rounds stays 0
  // Self-balancing sweeps. A move is made when the alternative choice is
  // at least 2 lighter, so every move strictly decreases
  // max(load_src, load_dst) — the passes monotonically descend and must
  // reach a fixpoint.
  for (std::uint32_t pass = 1; pass <= max_passes_; ++pass) {
    rounds_ = pass;
    bool moved = false;
    for (std::uint64_t i = 0; i < current_.size(); ++i) {
      if (!alive_[i]) continue;
      const std::uint32_t cur = current_[i];
      const std::uint32_t alt = choice_a_[i] == cur ? choice_b_[i] : choice_a_[i];
      if (state.load(alt) + 1 < state.load(cur)) {
        state.remove_ball(cur);
        state.add_ball(alt);
        current_[i] = alt;
        ++reallocations_;
        moved = true;
      }
    }
    if (!moved) return;
  }
  completed_ = false;  // max_passes hit before fixpoint
}

}  // namespace bbb::core
