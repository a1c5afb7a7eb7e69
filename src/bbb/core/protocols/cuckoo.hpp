#pragma once
/// \file cuckoo.hpp
/// d-ary cuckoo hashing with buckets of size k (related-work §1 of the
/// paper): m items, each with d uniformly random candidate buckets out of
/// n, buckets hold at most k items. Insertion places into the first
/// candidate with space; if all candidates are full, a random-walk eviction
/// kicks a random resident of a random candidate bucket and re-inserts it.
///
/// This is the reallocation-based end of the design space the paper
/// contrasts against: perfect bucket bounds, but insertions can cascade
/// (and fail outright above the load threshold — see Dietzfelbinger et al.
/// for the exact thresholds).
///
/// As a streaming rule the eviction walk relocates *other* balls after
/// they were placed, so ball identity is not stable
/// (`stable_ball_identity() == false`): the dyn engine selects departure
/// victims by bin occupancy, and `on_remove` retires one resident of that
/// bucket. An insertion that exhausts its eviction budget parks the last
/// displaced item (the net count does not grow) and clears `completed()`.

#include <vector>

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"

namespace bbb::core {

/// Streaming d-ary cuckoo rule. Items are dense ids assigned by insert
/// order; the bucket occupancies live in the shared BinState.
class CuckooRule final : public PlacementRule {
 public:
  struct Params {
    std::uint32_t d = 2;            ///< candidate buckets per item
    std::uint32_t bucket_size = 4;  ///< k, items a bucket can hold
    std::uint32_t max_kicks = 500;  ///< eviction budget per insert
  };

  /// \throws std::invalid_argument if n == 0, d == 0, bucket_size == 0,
  ///         max_kicks == 0, or d > n.
  CuckooRule(std::uint32_t n, Params params);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] bool stable_ball_identity() const noexcept override { return false; }
  [[nodiscard]] std::uint32_t bound_n() const noexcept override {
    return static_cast<std::uint32_t>(residents_.size());
  }

  /// Items that failed to place (eviction budget exhausted).
  [[nodiscard]] std::uint64_t stash() const noexcept { return stash_; }
  /// Evictions performed so far (== reallocations()).
  [[nodiscard]] std::uint64_t moves() const noexcept { return reallocations_; }
  /// High-water mark of simultaneously tracked items. Departed and parked
  /// item ids are recycled, so long steady-state churn runs stay O(max
  /// population) in memory, not O(total insertions) — tested in
  /// tests/dyn/allocator_test.cpp.
  [[nodiscard]] std::uint64_t tracked_items() const noexcept {
    return choices_.size() / params_.d;
  }

  void on_remove(BinState& state, std::uint32_t bin) override;

  [[nodiscard]] const Params& params() const noexcept { return params_; }

 protected:
  /// Insert one item. Returns the bucket the *arriving* item ended in; on
  /// failure (budget exhausted) the net ball count is unchanged, the last
  /// displaced item is parked, completed() turns false, and the returned
  /// bucket is where the arriving item last rested (the parked item can be
  /// the arriving one, in which case it is in no bucket at all).
  std::uint32_t do_place(BinState& state, std::uint32_t weight,
                         rng::Engine& gen) override;

 private:
  [[nodiscard]] std::uint32_t choice(std::uint64_t item,
                                     std::uint32_t j) const noexcept {
    return choices_[item * params_.d + j];
  }

  Params params_;
  std::vector<std::vector<std::uint64_t>> residents_;  // item ids per bucket
  std::vector<std::uint32_t> choices_;                 // d per item, flattened
  std::vector<std::uint64_t> free_ids_;                // recycled item ids
  std::uint64_t stash_ = 0;
};

}  // namespace bbb::core
