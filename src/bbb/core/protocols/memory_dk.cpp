#include "bbb/core/protocols/memory_dk.hpp"

#include <algorithm>
#include <stdexcept>

namespace bbb::core {

MemoryDKRule::MemoryDKRule(std::uint32_t d, std::uint32_t k) : d_(d), k_(k) {
  if (d == 0) throw std::invalid_argument("MemoryDKRule: d must be positive");
  if (k == 0) throw std::invalid_argument("MemoryDKRule: k must be positive");
  memory_.reserve(k);
  candidates_.reserve(d + k);
}

std::string MemoryDKRule::name() const {
  return "memory[" + std::to_string(d_) + "," + std::to_string(k_) + "]";
}

std::uint32_t MemoryDKRule::do_place(BinState& state, std::uint32_t /*weight*/,
                                    rng::Engine& gen) {
  candidates_.clear();
  for (std::uint32_t j = 0; j < d_; ++j) {
    candidates_.push_back(
        static_cast<std::uint32_t>(rng::uniform_below(gen, state.n())));
  }
  probes_ += d_;
  // Remembered bins join the candidate set; duplicates are harmless (the
  // min scan just sees them twice).
  candidates_.insert(candidates_.end(), memory_.begin(), memory_.end());

  // Least-loaded candidate wins, uniform tie-break.
  std::uint32_t best = candidates_[0];
  std::uint32_t best_load = state.load(best);
  std::uint32_t ties = 1;
  for (std::size_t i = 1; i < candidates_.size(); ++i) {
    const std::uint32_t c = candidates_[i];
    const std::uint32_t l = state.load(c);
    if (l < best_load) {
      best = c;
      best_load = l;
      ties = 1;
    } else if (l == best_load) {
      ++ties;
      if (rng::uniform_below(gen, ties) == 0) best = c;
    }
  }
  state.add_ball(best);

  // New memory: the k least-loaded *distinct* candidates post-placement.
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                    candidates_.end());
  std::sort(candidates_.begin(), candidates_.end(),
            [&state](std::uint32_t a, std::uint32_t b) {
              const std::uint32_t la = state.load(a);
              const std::uint32_t lb = state.load(b);
              return la != lb ? la < lb : a < b;
            });
  memory_.assign(candidates_.begin(),
                 candidates_.begin() + std::min<std::size_t>(k_, candidates_.size()));
  return best;
}

}  // namespace bbb::core
