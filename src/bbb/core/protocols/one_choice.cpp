#include "bbb/core/protocols/one_choice.hpp"

namespace bbb::core {

std::uint32_t OneChoiceRule::do_place(BinState& state, std::uint32_t weight,
                                      rng::Engine& gen) {
  ++probes_;
  // Uniform capacities keep the classic single uniform draw (bit-for-bit
  // the historical randomness stream); heterogeneous capacities probe
  // proportionally to c_i through the state's alias table.
  std::uint32_t bin;
  if (state.uniform_capacity()) {
    const std::uint32_t n = state.n();
    lookahead_.top_up(gen, 1, [&state, n](std::uint32_t, std::uint64_t word) {
      state.prefetch(lemire_map(word, n));
    });
    LookaheadSource src(lookahead_, gen);
    bin = static_cast<std::uint32_t>(rng::uniform_below(src, n));
  } else {
    bin = state.sample_capacity_proportional(gen);
  }
  state.add_ball(bin, weight);
  return bin;
}

void OneChoiceRule::do_place_batch(BinState& state, std::uint64_t count,
                                   rng::Engine& gen, std::uint32_t* bins_out) {
  if (BatchPlacer::eligible(state, lookahead_)) {
    batch_.place_one_choice(state, count, lookahead_, gen, probes_, bins_out);
    total_placed_ += count;
    return;
  }
  PlacementRule::do_place_batch(state, count, gen, bins_out);
}

}  // namespace bbb::core
