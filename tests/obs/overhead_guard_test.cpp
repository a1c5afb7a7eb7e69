#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "bbb/core/bin_state.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/obs/harvest.hpp"
#include "bbb/rng/engine.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb {
namespace {

/// The "zero-overhead-when-off" contract, enforced at the source: counting
/// lives in plain integers the hot loop already maintained (probes) or in
/// code that is already cold (lookahead refills, side-table crossings),
/// and harvesting reads them ONCE, after the loop. There is no obs type,
/// no atomic, no branch on a config struct anywhere in the per-ball path —
/// so the instrumented run below executes the byte-identical loop and the
/// timing guard only has to reject gross regressions.

struct StreamOutcome {
  std::uint32_t max_load = 0;
  std::uint64_t probes = 0;
  double seconds = 0.0;
  obs::CoreCounters counters;
};

StreamOutcome run_stream(bool harvest_after, std::uint32_t n, std::uint64_t m) {
  rng::Engine gen(42);
  core::StreamingAllocator alloc(core::BinState(n, core::StateLayout::kWide),
                                 core::make_rule("greedy[2]", n, m));
  alloc.set_engine_exclusive(true);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < m; ++i) (void)alloc.place(gen);
  const auto t1 = std::chrono::steady_clock::now();
  StreamOutcome out;
  out.max_load = alloc.state().max_load();
  out.probes = alloc.rule().probes();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  if (harvest_after) out.counters = obs::harvest(alloc);
  return out;
}

TEST(OverheadGuard, HarvestNeverChangesPlacements) {
  // Same seed, same loop; one run harvests afterwards, one never touches
  // obs. Identical outcomes, and the harvest agrees with the rule's own
  // accounting.
  constexpr std::uint32_t n = 1u << 14;
  constexpr std::uint64_t m = 2ULL << 14;
  const StreamOutcome plain = run_stream(false, n, m);
  const StreamOutcome harvested = run_stream(true, n, m);
  EXPECT_EQ(plain.max_load, harvested.max_load);
  EXPECT_EQ(plain.probes, harvested.probes);
  EXPECT_EQ(harvested.counters.probes, harvested.probes);
  EXPECT_EQ(harvested.counters.balls_placed, m);
  EXPECT_EQ(plain.counters, obs::CoreCounters{});
}

#ifdef NDEBUG
TEST(OverheadGuard, HarvestedStreamWithinTolerance) {
  // Release-only wall-clock gate on the greedy[2] streaming loop. The
  // bound stays generous (CI machines are noisy): the harvested run may
  // not cost 1.5x the plain run. The contract is the byte-identical loop
  // asserted above; this only catches a gross slip.
  constexpr std::uint32_t n = 1u << 18;
  constexpr std::uint64_t m = 2ULL << 18;
  (void)run_stream(false, n, m);  // warm caches and the branch predictor
  double plain = 1e300;
  double harvested = 1e300;
  // Best-of-3 on both sides filters scheduler noise.
  for (int i = 0; i < 3; ++i) {
    plain = std::min(plain, run_stream(false, n, m).seconds);
    harvested = std::min(harvested, run_stream(true, n, m).seconds);
  }
  EXPECT_LT(harvested, plain * 1.5 + 1e-3)
      << "plain " << plain << "s vs harvested " << harvested << "s";
}
#endif

}  // namespace
}  // namespace bbb
