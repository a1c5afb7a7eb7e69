#include "bbb/core/protocols/d_choice.hpp"

#include <stdexcept>

#include "bbb/core/probe.hpp"

namespace bbb::core {

DChoiceRule::DChoiceRule(std::uint32_t d) : d_(d) {
  if (d == 0) throw std::invalid_argument("DChoiceRule: d must be positive");
}

std::string DChoiceRule::name() const { return "greedy[" + std::to_string(d_) + "]"; }

std::uint32_t DChoiceRule::do_place(BinState& state, std::uint32_t weight,
                                    rng::Engine& gen) {
  std::uint32_t best;
  if (state.uniform_capacity()) {
    // Keep >= 2d words buffered so a ball's candidates plus its worst-case
    // d-1 tie-break draws never hit a mid-ball refill; every buffered word
    // is speculatively prefetched as the candidate bin it maps to (words
    // consumed as tie-breaks prefetched a harmless bogus bin).
    const std::uint32_t n = state.n();
    lookahead_.top_up(gen, 2 * d_, [&state, n](std::uint32_t, std::uint64_t word) {
      state.prefetch(lemire_map(word, n));
    });
    LookaheadSource src(lookahead_, gen);
    best = least_loaded_of(src, n, d_, probes_,
                           [&state](std::uint32_t b) { return state.load(b); });
  } else {
    // Heterogeneous capacities: probe proportionally to c_i and join the
    // candidate with the least *normalized* load l/c — the weighted
    // two-choice rule that equalizes l_i/c_i instead of raw loads.
    best = least_norm_loaded_of(
        gen, d_, probes_,
        [&state](rng::Engine& g) { return state.sample_capacity_proportional(g); },
        [&state](std::uint32_t b) { return state.load(b); },
        [&state](std::uint32_t b) { return state.capacity(b); });
  }
  state.add_ball(best, weight);
  return best;
}

void DChoiceRule::do_place_batch(BinState& state, std::uint64_t count,
                                 rng::Engine& gen, std::uint32_t* bins_out) {
  if (d_ == 2 && BatchPlacer::eligible(state, lookahead_)) {
    batch_.place_greedy2(state, count, lookahead_, gen, probes_, bins_out);
    total_placed_ += count;
    return;
  }
  PlacementRule::do_place_batch(state, count, gen, bins_out);
}

}  // namespace bbb::core
