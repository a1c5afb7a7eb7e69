/// Model check of the dyn engine's ball registry against the std::deque
/// it replaced: the same pushes and pops, with the uniform victim drawn
/// from identical engine streams, must return the same bins in the same
/// order — through ring wrap-around, and through growth while the head
/// sits mid-block in a block other than the first.

#include "bbb/dyn/ball_registry.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>

#include "bbb/rng/xoshiro256.hpp"

namespace bbb::dyn {
namespace {

/// The deque registry the ring must reproduce victim for victim.
class DequeModel {
 public:
  void push(std::uint32_t bin) { live_.push_back(bin); }
  std::uint32_t pop_uniform(rng::Engine& gen) {
    const auto idx = static_cast<std::size_t>(rng::uniform_below(gen, live_.size()));
    const std::uint32_t bin = live_[idx];
    live_[idx] = live_.back();
    live_.pop_back();
    return bin;
  }
  std::uint32_t pop_oldest() {
    const std::uint32_t bin = live_.front();
    live_.pop_front();
    return bin;
  }
  [[nodiscard]] std::size_t size() const { return live_.size(); }

 private:
  std::deque<std::uint32_t> live_;
};

constexpr std::size_t kBlock = BallRegistry::kBlock;

TEST(BallRegistry, GrowsWhileHeadIsNotAtSlotZero) {
  BallRegistry ring;
  DequeModel model;
  std::uint32_t next = 0;
  const auto push = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      ring.push(next);
      model.push(next++);
    }
  };
  push(2 * kBlock);  // two blocks, full
  // Put the head 5 slots into the second block, refill to full (the tail
  // wraps into block 0), then grow twice with the head there.
  for (std::size_t i = 0; i < kBlock + 5; ++i) {
    ASSERT_EQ(ring.pop_oldest(), model.pop_oldest());
  }
  push(kBlock + 5);
  ASSERT_EQ(ring.size(), 2 * kBlock);
  push(3 * kBlock);
  ASSERT_EQ(ring.size(), model.size());
  while (model.size() > 0) ASSERT_EQ(ring.pop_oldest(), model.pop_oldest());
  EXPECT_EQ(ring.size(), 0u);
}

TEST(BallRegistry, RandomOperationsMatchTheDequeVictimForVictim) {
  rng::Engine ops(7);
  rng::Engine ring_gen(11);
  rng::Engine model_gen(11);
  BallRegistry ring;
  DequeModel model;
  std::uint32_t next = 0;
  // Alternate growing and shrinking phases so the ring wraps, grows with
  // the head anywhere, and drains to empty more than once.
  for (int phase = 0; phase < 12; ++phase) {
    const std::uint64_t push_pct = phase % 2 == 0 ? 70 : 25;
    for (std::size_t step = 0; step < 4 * kBlock; ++step) {
      const std::uint64_t roll = rng::uniform_below(ops, 100);
      if (model.size() == 0 || roll < push_pct) {
        ring.push(next);
        model.push(next++);
      } else if (roll % 2 == 0) {
        ASSERT_EQ(ring.pop_oldest(), model.pop_oldest()) << phase << "/" << step;
      } else {
        ASSERT_EQ(ring.pop_uniform(ring_gen), model.pop_uniform(model_gen))
            << phase << "/" << step;
      }
      ASSERT_EQ(ring.size(), model.size());
    }
  }
  EXPECT_EQ(ring_gen(), model_gen());  // the same words were consumed
}

}  // namespace
}  // namespace bbb::dyn
