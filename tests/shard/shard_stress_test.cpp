/// Concurrency stress for the sharded engine's barrier and the engine
/// itself — the `tsan` ctest label (tests/CMakeLists.txt): fast enough
/// for tier-1, but written for the BBB_TSAN=ON build where the race
/// detector certifies the release/acquire publication contract of
/// par::SpinBarrier and the phase discipline of shard::ShardedAllocator
/// (one writer per array between barriers; worker 0's cleanup running
/// beside the other workers' next draw). Every test is deterministic in
/// its ASSERTIONS (values, counts); only the interleavings vary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bbb/core/bin_state.hpp"
#include "bbb/par/spin_barrier.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/shard/engine.hpp"

namespace bbb::shard {
namespace {

TEST(ShardStress, BarrierSynchronizesManyGenerations) {
  // Classic barrier torture: every thread increments its slot exactly
  // once per generation; after each wait, ALL slots must show the current
  // generation — a straggler would be caught immediately.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kGenerations = 5'000;
  par::SpinBarrier barrier(kThreads);
  std::vector<std::uint64_t> slot(kThreads * 16, 0);  // padded, one per thread
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::thread> threads;
  for (std::uint32_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      for (std::uint32_t g = 1; g <= kGenerations; ++g) {
        slot[id * 16] = g;
        barrier.arrive_and_wait();
        for (std::uint32_t other = 0; other < kThreads; ++other) {
          if (slot[other * 16] < g) violations.fetch_add(1);
        }
        barrier.arrive_and_wait();  // keep writers out of the readers' check
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0u);
}

TEST(ShardStress, BarrierAbortReleasesEveryWaiter) {
  // Three workers park on the abort-aware barrier; a fourth flips the
  // abort flag instead of arriving. Every waiter must return false
  // promptly instead of spinning forever.
  constexpr std::uint32_t kParties = 4;
  par::SpinBarrier barrier(kParties);
  std::atomic<bool> abort{false};
  std::atomic<std::uint32_t> released{0};
  std::vector<std::thread> waiters;
  for (std::uint32_t id = 0; id < kParties - 1; ++id) {
    waiters.emplace_back([&] {
      if (!barrier.arrive_and_wait(abort)) released.fetch_add(1);
    });
  }
  abort.store(true, std::memory_order_seq_cst);
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(released.load(), kParties - 1);
}

TEST(ShardStress, EngineRepeatedRunsAreRaceFreeAndDeterministic) {
  // The engine end-to-end under churn: fresh 4-worker engines back to
  // back, small rounds so every phase (including deferral cleanup and the
  // request buckets' growth in the first rounds) runs many times per
  // engine. Same seed must give identical loads every time, and balls are
  // conserved exactly. Both layouts: the compact round applies through the
  // lean lane commit.
  for (const core::StateLayout layout :
       {core::StateLayout::kWide, core::StateLayout::kCompact}) {
    SCOPED_TRACE(std::string(core::to_string(layout)));
    std::vector<std::uint32_t> reference;
    for (int iteration = 0; iteration < 6; ++iteration) {
      ShardOptions opt;
      opt.shards = 4;
      opt.round_balls = 256;
      opt.layout = layout;
      ShardedAllocator engine("greedy[2]", 192, opt);
      rng::Engine gen = rng::SeedSequence(1234).engine(0);
      engine.run(20'000, gen);
      ASSERT_EQ(engine.balls(), 20'000u) << "iteration " << iteration;
      const std::vector<std::uint32_t> loads = engine.copy_loads();
      if (iteration == 0) {
        reference = loads;
        EXPECT_GT(engine.counters().deferred_balls, 0u);
      } else {
        ASSERT_EQ(loads, reference) << "iteration " << iteration;
      }
    }
  }
}

TEST(ShardStress, CleanupOverlapsNextDrawInConflictSaturatedRounds) {
  // n = 16 bins against rounds of 64 balls: nearly every ball conflicts,
  // so worker 0's cleanup replay is long and runs beside the other
  // workers' next draw in every round, writing other shards' lanes in the
  // compact layout. Loads must be identical on every repetition, balls
  // conserved, and the deferral path must carry most of the traffic.
  for (const core::StateLayout layout :
       {core::StateLayout::kWide, core::StateLayout::kCompact}) {
    for (const char* spec : {"greedy[2]", "left[4]"}) {
      SCOPED_TRACE(std::string(spec) + " " + std::string(core::to_string(layout)));
      std::vector<std::uint32_t> reference;
      for (int iteration = 0; iteration < 6; ++iteration) {
        ShardOptions opt;
        opt.shards = 4;
        opt.round_balls = 64;
        opt.layout = layout;
        ShardedAllocator engine(spec, 16, opt);
        rng::Engine gen = rng::SeedSequence(77).engine(0);
        engine.run(12'000, gen);
        ASSERT_EQ(engine.balls(), 12'000u) << "iteration " << iteration;
        EXPECT_GT(engine.counters().deferred_balls * 2, engine.counters().balls);
        const std::vector<std::uint32_t> loads = engine.copy_loads();
        if (iteration == 0) {
          reference = loads;
        } else {
          ASSERT_EQ(loads, reference) << "iteration " << iteration;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bbb::shard
