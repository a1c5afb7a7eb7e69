#include "bbb/core/protocols/cuckoo.hpp"

#include <stdexcept>

namespace bbb::core {

CuckooRule::CuckooRule(std::uint32_t n, Params params) : params_(params) {
  if (n == 0) throw std::invalid_argument("CuckooRule: n must be positive");
  if (params_.d == 0 || params_.bucket_size == 0 || params_.max_kicks == 0) {
    throw std::invalid_argument("CuckooRule: d/bucket_size/max_kicks must be positive");
  }
  if (params_.d > n) throw std::invalid_argument("CuckooRule: d must be <= n");
  residents_.resize(n);
}

std::string CuckooRule::name() const {
  return "cuckoo[" + std::to_string(params_.d) + "," +
         std::to_string(params_.bucket_size) + "]";
}

std::uint32_t CuckooRule::do_place(BinState& state, std::uint32_t /*weight*/,
                                    rng::Engine& gen) {
  // Reuse the id of a departed/parked item when one is available, so the
  // per-item choice table stays O(max population) under churn instead of
  // growing with every insertion ever made.
  std::uint64_t id;
  if (free_ids_.empty()) {
    id = choices_.size() / params_.d;
    choices_.resize(choices_.size() + params_.d);
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
  }
  // Draw and remember this item's d candidate buckets (its "hash values").
  for (std::uint32_t j = 0; j < params_.d; ++j) {
    choices_[id * params_.d + j] =
        static_cast<std::uint32_t>(rng::uniform_below(gen, state.n()));
    ++probes_;
  }

  // Track where the *arriving* item rests: it settles wherever it lands
  // whenever it is the wanderer (directly, or by taking a victim's slot),
  // and a later kick of this same walk can revisit its bucket and evict
  // it again — so the position is updated every time wanderer == id.
  std::uint32_t arrival_bin = choice(id, 0);
  std::uint64_t wanderer = id;
  for (std::uint32_t kick = 0; kick <= params_.max_kicks; ++kick) {
    // Any candidate with space takes the wanderer.
    bool placed = false;
    for (std::uint32_t j = 0; j < params_.d; ++j) {
      const std::uint32_t b = choice(wanderer, j);
      if (state.load(b) < params_.bucket_size) {
        residents_[b].push_back(wanderer);
        state.add_ball(b);
        if (wanderer == id) arrival_bin = b;
        placed = true;
        break;
      }
    }
    if (placed) return arrival_bin;
    if (kick == params_.max_kicks) break;

    // Random walk: evict a random resident of a random candidate bucket.
    // The bucket's occupancy is unchanged (wanderer in, victim out), so
    // the BinState needs no update here.
    const auto jr = static_cast<std::uint32_t>(rng::uniform_below(gen, params_.d));
    const std::uint32_t b = choice(wanderer, jr);
    auto& bucket = residents_[b];
    const std::size_t victim_slot = rng::uniform_below(gen, bucket.size());
    std::swap(bucket[victim_slot], bucket.back());
    const std::uint64_t victim = bucket.back();
    bucket.back() = wanderer;  // wanderer takes the victim's slot
    if (wanderer == id) arrival_bin = b;
    wanderer = victim;
    ++reallocations_;
  }
  // Budget exhausted: the current wanderer has nowhere to go. Park it —
  // the arriving item is stored but another item fell out, so the net
  // count is unchanged and no ball is added to the state. Its id slot is
  // free for the next arrival.
  ++stash_;
  completed_ = false;
  free_ids_.push_back(wanderer);
  return arrival_bin;
}

void CuckooRule::on_remove(BinState& /*state*/, std::uint32_t bin) {
  // A departure drained one item of this bucket; retire the most recent
  // resident (items are interchangeable at the occupancy level) and
  // recycle its id.
  if (!residents_[bin].empty()) {
    free_ids_.push_back(residents_[bin].back());
    residents_[bin].pop_back();
  }
}

}  // namespace bbb::core
