#include "bbb/core/protocols/left_d.hpp"

#include <stdexcept>

#include "bbb/core/probe.hpp"

namespace bbb::core {

LeftDRule::LeftDRule(std::uint32_t n, std::uint32_t d) : n_(n), d_(d) {
  if (n == 0) throw std::invalid_argument("LeftDRule: n must be positive");
  if (d == 0) throw std::invalid_argument("LeftDRule: d must be positive");
  if (d > n) throw std::invalid_argument("LeftDRule: d must be <= n");
}

std::string LeftDRule::name() const { return "left[" + std::to_string(d_) + "]"; }

std::pair<std::uint32_t, std::uint32_t> LeftDRule::group_range(std::uint32_t g) const {
  if (g >= d_) throw std::invalid_argument("LeftDRule: group out of range");
  // Group g covers [g*n/d, (g+1)*n/d) with 64-bit intermediate products, so
  // group sizes differ by at most one bin.
  const std::uint64_t n = n_;
  const auto first = static_cast<std::uint32_t>(g * n / d_);
  const auto last =
      static_cast<std::uint32_t>((static_cast<std::uint64_t>(g) + 1) * n / d_);
  return {first, last};
}

std::uint32_t LeftDRule::do_place(BinState& state, std::uint32_t weight,
                                  rng::Engine& gen) {
  const bool uniform = state.uniform_capacity();
  if (!uniform && sampled_state_ != &state) {
    // First placement on a heterogeneous state (or the rule was pointed at
    // a different state, contract-violating but cheap to survive): one
    // capacity alias table per group, rebuilt whenever the driven state
    // changes so the probes always follow *this* state's capacities.
    group_samplers_.clear();
    group_samplers_.reserve(d_);
    const auto& caps = state.capacities();
    for (std::uint32_t g = 0; g < d_; ++g) {
      const auto [first, last] = group_range(g);
      group_samplers_.emplace_back(
          std::vector<double>(caps.begin() + first, caps.begin() + last));
    }
    sampled_state_ = &state;
  }
  if (uniform) {
    // left[d] consumes exactly d words per ball (Vöcking's tie-break is
    // deterministic — no tie draws), so a buffered word's group is its
    // queue offset mod d; prefetch maps each word within that group's
    // range. Lemire rejections (astronomically rare) shift the phase and
    // merely mis-prefetch until the next refill.
    lookahead_.top_up(gen, d_, [this, &state](std::uint32_t offset,
                                              std::uint64_t word) {
      const auto [first, last] = group_range(offset % d_);
      state.prefetch(first + lemire_map(word, last - first));
    });
  }
  LookaheadSource src(lookahead_, gen);
  // Sample one bin per group, left to right. The strict `<` comparison
  // implements Vöcking's always-go-left tie-breaking: an equal (normalized)
  // load in a later (righter) group never displaces the current best.
  std::uint32_t best = 0;
  std::uint32_t best_load = 0;
  std::uint32_t best_cap = 1;
  for (std::uint32_t g = 0; g < d_; ++g) {
    const auto [first, last] = group_range(g);
    const auto c = static_cast<std::uint32_t>(
        uniform ? first + rng::uniform_below(src, last - first)
                : first + group_samplers_[g](gen));
    const std::uint32_t l = state.load(c);
    const std::uint32_t cc = state.capacity(c);
    if (g == 0 || norm_load_less(l, cc, best_load, best_cap)) {
      best = c;
      best_load = l;
      best_cap = cc;
    }
  }
  probes_ += d_;
  state.add_ball(best, weight);
  return best;
}

void LeftDRule::do_place_batch(BinState& state, std::uint64_t count,
                               rng::Engine& gen, std::uint32_t* bins_out) {
  if (d_ == 2 && BatchPlacer::eligible(state, lookahead_)) {
    batch_.place_left2(state, count, lookahead_, gen, probes_, bins_out);
    total_placed_ += count;
    return;
  }
  PlacementRule::do_place_batch(state, count, gen, bins_out);
}

}  // namespace bbb::core
