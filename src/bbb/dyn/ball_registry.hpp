#pragma once
/// \file ball_registry.hpp
/// The dyn engine's record of live balls for ball-selecting departures.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bbb/rng/engine.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::dyn {

/// Live balls in arrival order on a power-of-two ring: O(1) push at the
/// tail, O(1) uniform victim (swap with the back), O(1) oldest victim
/// (advance the head). Logical position i (oldest first) is ring slot
/// (head + i) & mask; these are the positions a std::deque gives, so the
/// same victims are drawn. Slots live in fixed 16 KiB blocks rather than
/// one array: doubling a flat array holds the old and the new copy at
/// once and leaves both in the heap, which raised the dyn-churn
/// workload's peak RSS by about 8%; blocks grow with no copy beyond one
/// partial block. Only maintained for ball-selecting workloads;
/// supermarket departures sample a nonempty bin from the allocator state
/// instead.
class BallRegistry {
 public:
  /// Slots per block (a power of two); the ring's capacity is a power-of-
  /// two number of blocks.
  static constexpr std::size_t kBlockBits = 12;
  static constexpr std::size_t kBlock = std::size_t{1} << kBlockBits;

  void push(std::uint32_t bin) {
    if (size_ == blocks_.size() * kBlock) grow();
    slot(head_ + size_) = bin;
    ++size_;
  }

  std::uint32_t pop_uniform(rng::Engine& gen) {
    const auto idx = static_cast<std::size_t>(rng::uniform_below(gen, size_));
    std::uint32_t& victim = slot(head_ + idx);
    const std::uint32_t bin = victim;
    --size_;
    victim = slot(head_ + size_);
    return bin;
  }

  std::uint32_t pop_oldest() {
    const std::uint32_t bin = slot(head_);
    head_ = (head_ + 1) & mask_;
    --size_;
    return bin;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::uint32_t& slot(std::size_t pos) noexcept {
    pos &= mask_;
    return blocks_[pos >> kBlockBits][pos & (kBlock - 1)];
  }

  /// Double the block count of a full ring (one block at first). Rotating
  /// the block pointers puts the head in block 0 at offset o < kBlock;
  /// the o balls that wrapped into block 0's front then belong just past
  /// the old end, in the first new block.
  void grow() {
    const std::size_t old_blocks = blocks_.size();
    const auto head_block = static_cast<std::ptrdiff_t>(head_ >> kBlockBits);
    std::rotate(blocks_.begin(), blocks_.begin() + head_block, blocks_.end());
    head_ &= kBlock - 1;
    const std::size_t new_blocks = old_blocks == 0 ? 1 : 2 * old_blocks;
    while (blocks_.size() < new_blocks) {
      blocks_.push_back(std::make_unique_for_overwrite<std::uint32_t[]>(kBlock));
    }
    if (old_blocks > 0) {
      std::copy_n(blocks_[0].get(), head_, blocks_[old_blocks].get());
    }
    mask_ = new_blocks * kBlock - 1;
  }

  std::vector<std::unique_ptr<std::uint32_t[]>> blocks_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace bbb::dyn
