/// The sharded engine's correctness battery:
///
///   * ShardTopology — the balanced contiguous partition and its
///     reciprocal-division routing, property-tested against plain
///     division;
///   * ShardLockstep — shards[1]:spec is bit-for-bit the sequential
///     streaming core for EVERY registry family (both layouts), and a
///     multi-shard run is bit-for-bit a literal sequential replay of the
///     same substreams in global ball order — the exactness claim the
///     round protocol's conflict-deferral rule makes (engine.hpp);
///   * ShardEngine — merged-metric identities, determinism, conservation,
///     consumption of the caller's engine, and every rejection path.
///
/// The statistical half of the equivalence story (sharded vs sequential
/// at fresh seeds, alpha = 1e-4) lives in tests/shard/equivalence_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bbb/core/bin_state.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/rng/engine.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/shard/engine.hpp"
#include "bbb/shard/topology.hpp"
#include "bbb/sim/runner.hpp"

namespace bbb::shard {
namespace {

// ---------------------------------------------------------------------------
// ShardTopology
// ---------------------------------------------------------------------------

TEST(ShardTopology, FastDivMatchesPlainDivision) {
  rng::Engine eng = rng::SeedSequence(3).engine(0);
  const std::uint32_t divisors[] = {1u,    2u,     3u,          5u,
                                    7u,    64u,    1000u,       4095u,
                                    4096u, 1u << 31, 0xFFFFFFFFu};
  for (const std::uint32_t d : divisors) {
    const FastDivU32 div(d);
    EXPECT_EQ(div.divisor(), d);
    const std::uint32_t edges[] = {0u, 1u, d - 1, d, d + 1, 2 * d, 0xFFFFFFFFu};
    for (const std::uint32_t x : edges) {
      EXPECT_EQ(div(x), x / d) << "d=" << d << " x=" << x;
    }
    for (int i = 0; i < 2'000; ++i) {
      const auto x = static_cast<std::uint32_t>(eng());
      ASSERT_EQ(div(x), x / d) << "d=" << d << " x=" << x;
    }
  }
  EXPECT_THROW(FastDivU32(0), std::invalid_argument);
}

TEST(ShardTopology, PartitionCoversEveryBinExactlyOnce) {
  const std::pair<std::uint32_t, std::uint32_t> cases[] = {
      {1, 1}, {2, 1}, {5, 5},  {7, 3},       {64, 8},
      {97, 13}, {1000, 7}, {65536, 64}, {1u << 20, 96}};
  rng::Engine eng = rng::SeedSequence(4).engine(0);
  for (const auto& [n, t] : cases) {
    SCOPED_TRACE("n=" + std::to_string(n) + " t=" + std::to_string(t));
    const Topology topo(n, t);
    EXPECT_EQ(topo.n(), n);
    EXPECT_EQ(topo.shards(), t);
    EXPECT_EQ(topo.first_bin(0), 0u);
    EXPECT_EQ(topo.first_bin(t), n);
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < t; ++s) {
      const std::uint32_t bins = topo.shard_bins(s);
      ASSERT_GE(bins, 1u);
      // Balanced: sizes differ by at most one, larger shards first.
      EXPECT_LE(bins, topo.shard_bins(0));
      EXPECT_GE(bins, topo.shard_bins(t - 1));
      EXPECT_EQ(topo.first_bin(s + 1) - topo.first_bin(s), bins);
      total += bins;
      // Routing is exact on both edges of every range.
      const std::uint32_t first = topo.first_bin(s);
      EXPECT_EQ(topo.shard_of(first), s);
      EXPECT_EQ(topo.shard_of(first + bins - 1), s);
      EXPECT_EQ(topo.local_of(first, s), 0u);
      EXPECT_EQ(topo.local_of(first + bins - 1, s), bins - 1);
    }
    EXPECT_EQ(total, n);
    // Random interior bins agree with the range definition.
    for (int i = 0; i < 5'000; ++i) {
      const auto bin = static_cast<std::uint32_t>(rng::uniform_below(eng, n));
      const std::uint32_t owner = topo.shard_of(bin);
      ASSERT_LT(owner, t);
      ASSERT_GE(bin, topo.first_bin(owner));
      ASSERT_LT(bin, topo.first_bin(owner + 1));
      ASSERT_EQ(topo.first_bin(owner) + topo.local_of(bin, owner), bin);
    }
  }
}

TEST(ShardTopology, RejectsDegeneratePartitions) {
  EXPECT_THROW(Topology(0, 1), std::invalid_argument);
  EXPECT_THROW(Topology(8, 0), std::invalid_argument);
  EXPECT_THROW(Topology(8, 9), std::invalid_argument);
  EXPECT_NO_THROW(Topology(8, 8));
}

// ---------------------------------------------------------------------------
// ShardLockstep: shards[1] == the sequential streaming core, bit for bit
// ---------------------------------------------------------------------------

struct SeqResult {
  std::vector<std::uint32_t> loads;
  std::uint64_t probes = 0;
  std::uint64_t balls = 0;
};

/// The sequential reference: the streaming place loop plus finalize — the
/// execution shards[1] promises to reproduce exactly.
SeqResult streaming_reference(const std::string& spec, std::uint32_t n,
                              std::uint64_t m, core::StateLayout layout,
                              std::uint64_t seed) {
  const auto alloc = core::make_streaming_allocator(spec, n, m, layout);
  rng::Engine gen = rng::SeedSequence(seed).engine(0);
  alloc->set_engine_exclusive(true);
  for (std::uint64_t i = 0; i < m; ++i) (void)alloc->place(gen);
  alloc->finalize(gen);
  SeqResult out;
  out.loads = alloc->state().copy_loads();
  out.probes = alloc->probes();
  out.balls = alloc->state().balls();
  return out;
}

SeqResult sharded_run(const std::string& spec, std::uint32_t n, std::uint64_t m,
                      std::uint32_t shards, core::StateLayout layout,
                      std::uint64_t seed, std::uint32_t round_balls = 8192) {
  ShardOptions opt;
  opt.shards = shards;
  opt.layout = layout;
  opt.m_hint = m;
  opt.round_balls = round_balls;
  ShardedAllocator engine(spec, n, opt);
  rng::Engine gen = rng::SeedSequence(seed).engine(0);
  engine.run(m, gen);
  SeqResult out;
  out.loads = engine.copy_loads();
  out.probes = engine.probes();
  out.balls = engine.balls();
  return out;
}

TEST(ShardLockstep, SingleShardMatchesStreamingCoreEveryFamily) {
  // One concrete spec per registry family (the same instantiation map the
  // obs integration suite enforces completeness of). Note batched[64] here
  // pins the STREAMING capacity-bounded form — shards[1]'s documented
  // batch semantics — not the LW-rounds batch protocol.
  const std::vector<std::string> specs = {
      "one-choice",      "greedy[2]",        "left[2]",
      "memory[1,1]",     "threshold",        "threshold[1]",
      "doubling-threshold[4]", "adaptive",   "adaptive[1]",
      "adaptive-net",    "adaptive-total",   "stale-adaptive[8]",
      "skewed-adaptive[50]", "batched[64]",  "self-balancing",
      "cuckoo[2,16]"};
  constexpr std::uint64_t kM = 4'096;
  constexpr std::uint32_t kN = 512;
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    const SeqResult ref = streaming_reference(spec, kN, kM, core::StateLayout::kWide, 42);
    const SeqResult got = sharded_run(spec, kN, kM, 1, core::StateLayout::kWide, 42);
    EXPECT_EQ(got.loads, ref.loads);
    EXPECT_EQ(got.probes, ref.probes);
    EXPECT_EQ(got.balls, ref.balls);
  }
}

TEST(ShardLockstep, SingleShardMatchesStreamingCoreCompactLayout) {
  for (const std::string& spec :
       {std::string("one-choice"), std::string("greedy[2]"), std::string("left[2]"),
        std::string("batched[64]")}) {
    SCOPED_TRACE(spec);
    const SeqResult ref =
        streaming_reference(spec, 512, 8'192, core::StateLayout::kCompact, 7);
    const SeqResult got =
        sharded_run(spec, 512, 8'192, 1, core::StateLayout::kCompact, 7);
    EXPECT_EQ(got.loads, ref.loads);
    EXPECT_EQ(got.probes, ref.probes);
  }
}

TEST(ShardLockstep, ProtocolWrapperMatchesSequentialProtocol) {
  // Through the registry: shards[1]:greedy[2] as a batch Protocol equals
  // the plain greedy[2] Protocol (batch_equivalent rule, so its batch form
  // IS the place loop).
  const auto sharded = core::make_protocol("shards[1]:greedy[2]");
  const auto plain = core::make_protocol("greedy[2]");
  rng::Engine g1 = rng::SeedSequence(42).engine(0);
  rng::Engine g2 = rng::SeedSequence(42).engine(0);
  const core::AllocationResult a = sharded->run(10'000, 1'024, g1);
  const core::AllocationResult b = plain->run(10'000, 1'024, g2);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.balls, b.balls);
}

// ---------------------------------------------------------------------------
// ShardLockstep: multi-shard == literal sequential replay, bit for bit
// ---------------------------------------------------------------------------

enum class RKind : std::uint8_t { kOneChoice, kGreedy, kLeft };

std::uint32_t replay_decide(RKind kind, std::uint32_t d,
                            const std::vector<std::uint32_t>& loads,
                            const std::array<std::uint32_t, kMaxShardD>& bins,
                            std::uint64_t aux) {
  if (kind == RKind::kOneChoice) return 0;
  if (kind == RKind::kLeft) {
    std::uint32_t best = 0;
    for (std::uint32_t g = 1; g < d; ++g) {
      if (loads[bins[g]] < loads[bins[best]]) best = g;
    }
    return best;
  }
  std::uint32_t best = 0;
  std::uint32_t ties = 1;
  for (std::uint32_t g = 1; g < d; ++g) {
    if (loads[bins[g]] < loads[bins[best]]) {
      best = g;
      ties = 1;
    } else if (loads[bins[g]] == loads[bins[best]]) {
      ++ties;
    }
  }
  if (ties == 1) return best;
  const auto pick = static_cast<std::uint32_t>(rng::lemire_map(aux, ties));
  std::uint32_t seen = 0;
  for (std::uint32_t g = 0; g < d; ++g) {
    if (loads[bins[g]] == loads[bins[best]]) {
      if (seen == pick) return g;
      ++seen;
    }
  }
  return best;
}

/// The oracle the engine claims to equal: draw every ball's probes from
/// the same per-shard substreams in the same per-worker order, then
/// process the balls ONE AT A TIME in global order (round-major,
/// worker-major, slice index) against fully up-to-date loads. No rounds,
/// no messages, no deferral — plain sequential d-choice.
std::vector<std::uint32_t> sequential_replay(RKind kind, std::uint32_t d,
                                             std::uint32_t n, std::uint32_t t,
                                             std::uint32_t round_balls,
                                             std::uint64_t m, rng::Engine& gen) {
  const std::uint64_t nested = gen();
  const std::uint64_t round_total =
      std::clamp<std::uint64_t>(round_balls, t, 65535ULL * t);
  const rng::SeedSequence seq(nested);
  std::vector<rng::Engine> eng;
  eng.reserve(t);
  for (std::uint32_t s = 0; s < t; ++s) eng.push_back(seq.engine(s));

  std::vector<std::uint32_t> loads(n, 0);
  std::vector<std::array<std::uint32_t, kMaxShardD>> bins;
  std::vector<std::uint64_t> aux;
  const std::uint64_t rounds = (m + round_total - 1) / round_total;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::uint64_t base = r * round_total;
    const std::uint64_t b = std::min(round_total, m - base);
    bins.assign(b, {});
    aux.assign(b, 0);
    for (std::uint32_t s = 0; s < t; ++s) {
      const auto lo = static_cast<std::uint32_t>(s * b / t);
      const auto hi =
          static_cast<std::uint32_t>((static_cast<std::uint64_t>(s) + 1) * b / t);
      for (std::uint32_t i = lo; i < hi; ++i) {
        for (std::uint32_t g = 0; g < d; ++g) {
          if (kind == RKind::kLeft) {
            const auto first =
                static_cast<std::uint32_t>(static_cast<std::uint64_t>(g) * n / d);
            const auto last = static_cast<std::uint32_t>(
                (static_cast<std::uint64_t>(g) + 1) * n / d);
            bins[i][g] = first + static_cast<std::uint32_t>(
                                     rng::uniform_below(eng[s], last - first));
          } else {
            bins[i][g] = static_cast<std::uint32_t>(rng::uniform_below(eng[s], n));
          }
        }
        if (kind == RKind::kGreedy) aux[i] = eng[s]();
      }
    }
    for (std::uint64_t j = 0; j < b; ++j) {
      const std::uint32_t slot = replay_decide(kind, d, loads, bins[j], aux[j]);
      ++loads[bins[j][slot]];
    }
  }
  return loads;
}

struct ReplayCase {
  RKind kind;
  std::uint32_t d;
  const char* spec;
  std::uint32_t n;
  std::uint32_t shards;
  std::uint32_t round_balls;
  std::uint64_t m;
};

TEST(ShardLockstep, MultiShardMatchesSequentialReplayBitForBit) {
  // Small n with large rounds forces heavy intra-round conflicts, so the
  // deferral/cleanup path carries much of the traffic; prime shard counts
  // and odd m exercise uneven slices and a ragged final round.
  const ReplayCase cases[] = {
      {RKind::kOneChoice, 1, "one-choice", 64, 3, 64, 1'000},
      {RKind::kGreedy, 2, "greedy[2]", 97, 4, 128, 10'007},
      {RKind::kGreedy, 3, "greedy[3]", 256, 7, 64, 5'000},
      {RKind::kGreedy, 2, "greedy[2]", 16, 4, 64, 2'000},  // conflict-saturated
      {RKind::kGreedy, 8, "greedy[8]", 128, 5, 96, 3'001},  // d at the cap
      {RKind::kLeft, 2, "left[2]", 50, 2, 32, 3'333},
      {RKind::kLeft, 4, "left[4]", 120, 6, 48, 4'999},
      {RKind::kGreedy, 2, "greedy[2]", 64, 2, 1u << 20, 1'000},  // clamped round
      {RKind::kGreedy, 2, "greedy[2]", 8, 8, 64, 2'001},       // t = n: one bin each
      {RKind::kOneChoice, 1, "one-choice", 5, 5, 16, 777},     // t = n, one-choice
      {RKind::kGreedy, 2, "greedy[2]", 1'000, 8, 512, 20'001}, // t = 8 on fewer cores
      {RKind::kLeft, 2, "left[2]", 4'096, 3, 65535u * 3, 400'000},  // at the clamp
      {RKind::kGreedy, 8, "greedy[8]", 4, 2, 32, 1'000},  // d > n: repeated bins
      {RKind::kGreedy, 2, "greedy[2]", 64, 5, 5, 3},      // m < t: empty slices
      {RKind::kLeft, 2, "left[2]", 64, 4, 64, 1},         // a single ball
  };
  int index = 0;
  for (const ReplayCase& c : cases) {
    SCOPED_TRACE(std::string(c.spec) + " n=" + std::to_string(c.n) + " t=" +
                 std::to_string(c.shards) + " rb=" + std::to_string(c.round_balls) +
                 " m=" + std::to_string(c.m));
    rng::Engine gen = rng::SeedSequence(2026).engine(index);
    rng::Engine gen_replay = gen;  // identical starting stream
    ++index;

    ShardOptions opt;
    opt.shards = c.shards;
    opt.round_balls = c.round_balls;
    ShardedAllocator engine(c.spec, c.n, opt);
    engine.run(c.m, gen);

    const std::vector<std::uint32_t> expected =
        sequential_replay(c.kind, c.d, c.n, c.shards, c.round_balls, c.m, gen_replay);
    EXPECT_EQ(engine.copy_loads(), expected);
    EXPECT_EQ(engine.balls(), c.m);
    EXPECT_EQ(engine.probes(), c.m * c.d);
    // The engine consumed exactly one word of the caller's stream (the
    // nested master seed) — the two engines are in lockstep afterwards.
    EXPECT_EQ(gen(), gen_replay());
  }
}

TEST(ShardLockstep, ConflictSaturatedRoundsActuallyDefer) {
  // Sanity on the previous test's teeth: at n = 16, rounds of 64 greedy[2]
  // balls MUST conflict, so the cleanup path is genuinely exercised.
  ShardOptions opt;
  opt.shards = 4;
  opt.round_balls = 64;
  ShardedAllocator engine("greedy[2]", 16, opt);
  rng::Engine gen = rng::SeedSequence(2026).engine(3);
  engine.run(2'000, gen);
  EXPECT_GT(engine.counters().deferred_balls, 0u);
  EXPECT_GT(engine.counters().cross_shard_probes, 0u);
  EXPECT_GT(engine.counters().messages, 0u);
  EXPECT_GT(engine.counters().rounds, 0u);
  // round_total = clamp(round_balls, shards, 65535 * shards) = 64.
  EXPECT_EQ(engine.sync_rounds(), (2'000 + 63) / 64);  // ceil(m / round_total)
}

// ---------------------------------------------------------------------------
// ShardEngine: merged reads, determinism, conservation, rejections
// ---------------------------------------------------------------------------

TEST(ShardEngine, MergedMetricsMatchRebuiltUnshardedState) {
  ShardOptions opt;
  opt.shards = 3;
  ShardedAllocator engine("greedy[2]", 384, opt);
  rng::Engine gen = rng::SeedSequence(5).engine(0);
  engine.run(50'000, gen);

  const std::vector<std::uint32_t> loads = engine.copy_loads();
  ASSERT_EQ(loads.size(), 384u);
  core::BinState ref(384, core::StateLayout::kWide);
  for (std::uint32_t bin = 0; bin < loads.size(); ++bin) {
    for (std::uint32_t k = 0; k < loads[bin]; ++k) ref.add_ball(bin);
  }
  EXPECT_EQ(engine.balls(), ref.balls());
  EXPECT_EQ(engine.max_load(), ref.max_load());
  EXPECT_EQ(engine.min_load(), ref.min_load());
  EXPECT_EQ(engine.gap(), ref.max_load() - ref.min_load());
  // psi merges integer parts, so it is exactly the unsharded expression.
  EXPECT_DOUBLE_EQ(engine.psi(), ref.psi());
  // log_phi sums per-shard weights in a different order than the
  // incremental single-state accumulation — equal up to roundoff.
  EXPECT_NEAR(engine.log_phi(), ref.log_phi(),
              1e-9 * std::max(1.0, std::abs(ref.log_phi())));
  const std::vector<std::uint32_t> merged = engine.merged_level_counts();
  ASSERT_EQ(merged.size(), static_cast<std::size_t>(ref.max_load()) + 1);
  for (std::size_t l = 0; l < merged.size(); ++l) {
    EXPECT_EQ(merged[l], ref.level_counts()[l]) << "level " << l;
  }
  std::uint64_t level_total = 0;
  for (const std::uint32_t c : merged) level_total += c;
  EXPECT_EQ(level_total, 384u);

  const core::AllocationResult res = engine.result();
  EXPECT_EQ(res.loads, loads);
  EXPECT_EQ(res.balls, 50'000u);
  EXPECT_EQ(res.probes, 100'000u);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.rounds, engine.sync_rounds());
}

TEST(ShardEngine, SameSeedSameResultIndependentOfScheduling) {
  // Two fresh engines, same seed: the result may depend only on
  // (seed, shards, round_balls) — never on thread interleaving.
  auto run_once = [] {
    ShardOptions opt;
    opt.shards = 4;
    opt.round_balls = 512;
    ShardedAllocator engine("greedy[2]", 256, opt);
    rng::Engine gen = rng::SeedSequence(77).engine(0);
    engine.run(30'000, gen);
    return engine.copy_loads();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(ShardEngine, ConservesBallsAcrossShardCounts) {
  for (const std::uint32_t t : {1u, 2u, 3u, 5u, 8u}) {
    SCOPED_TRACE("t=" + std::to_string(t));
    ShardOptions opt;
    opt.shards = t;
    ShardedAllocator engine("left[2]", 240, opt);
    rng::Engine gen = rng::SeedSequence(9).engine(0);
    engine.run(12'345, gen);
    EXPECT_EQ(engine.balls(), 12'345u);
    const std::vector<std::uint32_t> loads = engine.copy_loads();
    EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), std::uint64_t{0}), 12'345u);
    EXPECT_EQ(engine.probes(), 2u * 12'345u);
  }
}

TEST(ShardEngine, ZeroBallsRunIsWellFormed) {
  for (const std::uint32_t t : {1u, 4u}) {
    ShardOptions opt;
    opt.shards = t;
    ShardedAllocator engine("greedy[2]", 32, opt);
    rng::Engine gen = rng::SeedSequence(1).engine(0);
    engine.run(0, gen);
    EXPECT_EQ(engine.balls(), 0u);
    EXPECT_EQ(engine.max_load(), 0u);
    EXPECT_EQ(engine.min_load(), 0u);
    EXPECT_EQ(engine.copy_loads(), std::vector<std::uint32_t>(32, 0));
    EXPECT_TRUE(engine.result().completed);
  }
}

TEST(ShardEngine, ShardStateAccessorExposesThePartition) {
  ShardOptions opt;
  opt.shards = 3;
  ShardedAllocator engine("one-choice", 100, opt);
  rng::Engine gen = rng::SeedSequence(6).engine(0);
  engine.run(5'000, gen);
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    const core::BinState& st = engine.shard_state(s);
    EXPECT_EQ(st.n(), engine.topology().shard_bins(s));
    total += st.balls();
  }
  EXPECT_EQ(total, 5'000u);
  EXPECT_THROW((void)engine.shard_state(3), std::out_of_range);
}

TEST(ShardEngine, EngineIsOneShot) {
  ShardOptions opt;
  opt.shards = 2;
  ShardedAllocator engine("greedy[2]", 64, opt);
  rng::Engine gen = rng::SeedSequence(1).engine(0);
  engine.run(100, gen);
  EXPECT_THROW(engine.run(100, gen), std::logic_error);
}

TEST(ShardEngine, RejectsInvalidConfigurations) {
  ShardOptions two;
  two.shards = 2;
  ShardOptions none;
  none.shards = 0;
  ShardOptions many;
  many.shards = 8;
  // Multi-shard mode implements the probe-based rules only.
  EXPECT_THROW(ShardedAllocator("adaptive", 64, two), std::invalid_argument);
  EXPECT_THROW(ShardedAllocator("threshold", 64, two), std::invalid_argument);
  EXPECT_THROW(ShardedAllocator("cuckoo[2,4]", 64, two), std::invalid_argument);
  // d above the deferred-descriptor cap.
  EXPECT_THROW(ShardedAllocator("greedy[9]", 64, two), std::invalid_argument);
  // Degenerate partitions.
  EXPECT_THROW(ShardedAllocator("greedy[2]", 4, many), std::invalid_argument);
  EXPECT_THROW(ShardedAllocator("greedy[2]", 64, none), std::invalid_argument);
  // Unknown inner spec still fails through the registry.
  EXPECT_THROW(ShardedAllocator("no-such-rule", 64, two), std::invalid_argument);
  // Single-shard mode supports everything the registry does.
  ShardOptions one;
  one.shards = 1;
  one.m_hint = 100;
  EXPECT_NO_THROW(ShardedAllocator("adaptive", 64, one));
  EXPECT_NO_THROW(ShardedAllocator("greedy[9]", 64, one));
}

TEST(ShardEngine, RegistryIntegration) {
  EXPECT_EQ(core::make_protocol("shards[4]:greedy[2]")->name(), "shards[4]:greedy[2]");
  EXPECT_EQ(core::make_protocol("shards[1]:adaptive")->name(), "shards[1]:adaptive");
  EXPECT_THROW(core::make_protocol("shards[0]:greedy[2]"), std::invalid_argument);
  EXPECT_THROW(core::make_protocol("shards[2]:adaptive"), std::invalid_argument);
  EXPECT_THROW(core::make_protocol("shards[x]:greedy[2]"), std::invalid_argument);
  EXPECT_THROW(core::make_protocol("shards[2]:shards[2]:greedy[2]"),
               std::invalid_argument);
  EXPECT_THROW(core::make_protocol("capacities=1,2:shards[2]:greedy[2]"),
               std::invalid_argument);
  // The modifier builds an engine, not a streaming rule.
  EXPECT_THROW((void)core::make_rule("shards[2]:greedy[2]", 64, 0),
               std::invalid_argument);
  EXPECT_THROW((void)core::make_streaming_allocator("shards[2]:greedy[2]", 64, 0,
                                                    core::StateLayout::kWide),
               std::invalid_argument);
  const std::vector<std::string> specs = core::protocol_specs();
  EXPECT_NE(std::find(specs.begin(), specs.end(), "shards[t]:spec"), specs.end());

  ShardOptions two;
  two.shards = 2;
  EXPECT_EQ(ShardedAllocator("left[2]", 64, two).name(), "shards[2]:left[2]");
}

TEST(ShardEngine, SimRunnerRoutesShardSpecs) {
  sim::ExperimentConfig cfg;
  cfg.protocol_spec = "shards[2]:greedy[2]";
  cfg.m = 20'000;
  cfg.n = 256;
  cfg.replicates = 2;
  cfg.seed = 42;
  cfg.obs.level = obs::ObsLevel::kCounters;
  const sim::RunSummary s = sim::run_experiment(cfg);
  ASSERT_EQ(s.records.size(), 2u);
  for (const sim::ReplicateRecord& rec : s.records) {
    EXPECT_EQ(rec.probes, 40'000.0);
    EXPECT_TRUE(rec.completed);
    EXPECT_TRUE(std::isfinite(rec.psi));
    EXPECT_GT(rec.shard_counters.messages, 0u);
  }
  EXPECT_EQ(s.obs.counter_value("core.ball.placed"), 40'000u);
  EXPECT_GT(s.obs.counter_value("shard.message.count"), 0u);
  // ShardCounters folds per-worker round counts: replicates * shards *
  // ceil(m / round_total) with the default round_total = 8192.
  EXPECT_EQ(s.obs.counter_value("shard.sync_rounds"), 2u * 2u * 3u);
}

}  // namespace
}  // namespace bbb::shard
