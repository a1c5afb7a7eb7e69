/// The sharded engine's correctness battery:
///
///   * ShardTopology — the balanced contiguous partition and its
///     reciprocal-division routing, property-tested against plain
///     division;
///   * ShardLockstep — shards[1]:greedy[2] as a batch Protocol is the
///     plain greedy[2] Protocol bit for bit, and a multi-shard run is
///     bit-for-bit a literal sequential replay of the same substreams in
///     global ball order — the exactness claim the round protocol's
///     conflict-deferral rule makes (engine.hpp). That shards[1]:spec is
///     the bare spec for every registry spec is a row of the cross-path
///     matrix (tests/integration/path_matrix_test.cpp);
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
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bbb/core/bin_state.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/rng/engine.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/shard/counters.hpp"
#include "bbb/shard/engine.hpp"
#include "bbb/shard/topology.hpp"
#include "bbb/sim/runner.hpp"

namespace bbb::shard {

// Field-by-field output for a failed counter comparison.
void PrintTo(const ShardCounters& c, std::ostream* os) {
  *os << "{rounds=" << c.rounds << " balls=" << c.balls << " probes=" << c.probes
      << " cross_shard_probes=" << c.cross_shard_probes
      << " deferred_balls=" << c.deferred_balls << " messages=" << c.messages
      << " ring_highwater=" << c.ring_highwater << "}";
}

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
// ShardLockstep: shards[1]:spec == spec, bit for bit
// ---------------------------------------------------------------------------

TEST(ShardLockstep, ProtocolWrapperMatchesSequentialProtocol) {
  // Through the registry: shards[1]:greedy[2] as a batch Protocol (the
  // generic place-loop protocol under a name prefix) equals the plain
  // greedy[2] Protocol (batch_equivalent rule, so its batch form IS the
  // place loop).
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

/// What the sequential replay derives: the loads, and the counters the
/// engine's round protocol must report for the same draws.
struct Replay {
  std::vector<std::uint32_t> loads;
  ShardCounters counters;
  /// Balls that name one bin twice where an earlier ball of the same round
  /// already probed that bin: both of the ball's requests meet an
  /// already-probed bin, and the ball still defers exactly once.
  std::uint64_t repeats_of_probed_bin = 0;
};

/// The oracle the engine claims to equal: draw every ball's probes from
/// the same per-shard substreams in the same per-worker order, then
/// process the balls ONE AT A TIME in global order (round-major,
/// worker-major, slice index) against fully up-to-date loads. No rounds,
/// no messages, no deferral — plain sequential d-choice.
///
/// The counters follow from the round protocol's definition, not from its
/// code: a ball defers iff one of its bins was probed earlier in its round
/// by an earlier ball. A request to another shard counts as a request and
/// a reply, a commit to another shard as one message; cleanup runs on
/// worker 0, so a deferred ball counts against shard 0. A deferred ball's
/// winner is its sequential one: every later ball that decided in its
/// round probed bins disjoint from its own.
Replay sequential_replay(RKind kind, std::uint32_t d, std::uint32_t n, std::uint32_t t,
                         std::uint32_t round_balls, std::uint64_t m, rng::Engine& gen) {
  const std::uint64_t nested = gen();
  const std::uint64_t round_total =
      std::clamp<std::uint64_t>(round_balls, t, 65535ULL * t);
  const rng::SeedSequence seq(nested);
  std::vector<rng::Engine> eng;
  eng.reserve(t);
  for (std::uint32_t s = 0; s < t; ++s) eng.push_back(seq.engine(s));
  const Topology topo(n, t);

  Replay out;
  out.loads.assign(n, 0);
  std::vector<std::uint32_t>& loads = out.loads;
  ShardCounters& c = out.counters;
  std::vector<std::array<std::uint32_t, kMaxShardD>> bins;
  std::vector<std::uint64_t> aux;
  std::vector<std::uint32_t> sender;      // [ball] the worker that drew it
  std::vector<std::uint8_t> probed;       // [bin] probed earlier this round
  std::vector<std::uint64_t> bucket(static_cast<std::size_t>(t) * t);
  const std::uint64_t rounds = (m + round_total - 1) / round_total;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::uint64_t base = r * round_total;
    const std::uint64_t b = std::min(round_total, m - base);
    bins.assign(b, {});
    aux.assign(b, 0);
    sender.assign(b, 0);
    probed.assign(n, 0);
    std::fill(bucket.begin(), bucket.end(), 0);
    for (std::uint32_t s = 0; s < t; ++s) {
      const auto lo = static_cast<std::uint32_t>(s * b / t);
      const auto hi =
          static_cast<std::uint32_t>((static_cast<std::uint64_t>(s) + 1) * b / t);
      for (std::uint32_t i = lo; i < hi; ++i) {
        sender[i] = s;
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
          const std::uint32_t owner = topo.shard_of(bins[i][g]);
          ++bucket[static_cast<std::size_t>(s) * t + owner];
          if (owner != s) {
            ++c.cross_shard_probes;
            c.messages += 2;  // request + reply
          }
        }
        if (kind == RKind::kGreedy) aux[i] = eng[s]();
      }
      c.balls += hi - lo;
      c.probes += static_cast<std::uint64_t>(hi - lo) * d;
      for (std::uint32_t o = 0; o < t; ++o) {
        if (o != s) {
          c.ring_highwater =
              std::max(c.ring_highwater, bucket[static_cast<std::size_t>(s) * t + o]);
        }
      }
    }
    c.rounds += t;
    for (std::uint64_t j = 0; j < b; ++j) {
      const auto* first = bins[j].data();
      const auto* last = first + d;
      bool deferred = false;
      bool repeat = false;
      for (const auto* p = first; p != last; ++p) {
        deferred = deferred || probed[*p] != 0;
        repeat = repeat || (probed[*p] != 0 && std::find(p + 1, last, *p) != last);
      }
      for (const auto* p = first; p != last; ++p) probed[*p] = 1;
      const std::uint32_t slot = replay_decide(kind, d, loads, bins[j], aux[j]);
      const std::uint32_t winner = topo.shard_of(bins[j][slot]);
      ++loads[bins[j][slot]];
      if (deferred) {
        ++c.deferred_balls;
        out.repeats_of_probed_bin += repeat ? 1 : 0;
        for (const auto* p = first; p != last; ++p) {
          c.messages += topo.shard_of(*p) != 0 ? 2 : 0;  // request + reply
        }
        c.messages += winner != 0 ? 1 : 0;  // commit
      } else {
        c.messages += winner != sender[j] ? 1 : 0;  // commit
      }
    }
  }
  return out;
}

struct ReplayCase {
  RKind kind;
  std::uint32_t d;
  const char* spec;
  std::uint32_t n;
  std::uint32_t shards;
  std::uint32_t round_balls;
  std::uint64_t m;
  /// The row must contain a ball that repeats a bin an earlier ball of its
  /// round already probed.
  bool repeats_probed_bin = false;
  /// Compact loads pass kCompactLaneMax: the row must promote a bin into
  /// the overflow side-table.
  bool promotes = false;
};

std::string row_label(const ReplayCase& c, core::StateLayout layout) {
  std::string label = std::string(c.spec) + " n=" + std::to_string(c.n);
  label += " t=" + std::to_string(c.shards) + " rb=" + std::to_string(c.round_balls);
  label += " m=" + std::to_string(c.m) + " " + std::string(core::to_string(layout));
  return label;
}

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
      {RKind::kGreedy, 3, "greedy[3]", 6, 3, 12, 601, true},  // repeat, probed earlier
      // Loads near 300: compact lanes pass the lean commit's ceiling, so
      // apply and cleanup both take the exact path and promote bins into
      // the overflow side-table.
      {RKind::kGreedy, 2, "greedy[2]", 16, 4, 64, 16 * 300, false, true},
  };
  // Every row runs in both layouts: the compact round applies through the
  // lean lane commit, the wide one through the exact add_ball.
  int index = 0;
  for (const ReplayCase& c : cases) {
    const rng::Engine start = rng::SeedSequence(2026).engine(index);
    ++index;
    for (const core::StateLayout layout :
         {core::StateLayout::kWide, core::StateLayout::kCompact}) {
      SCOPED_TRACE(row_label(c, layout));
      rng::Engine gen = start;
      rng::Engine gen_replay = start;  // identical starting stream

      ShardOptions opt;
      opt.shards = c.shards;
      opt.round_balls = c.round_balls;
      opt.layout = layout;
      ShardedAllocator engine(c.spec, c.n, opt);
      engine.run(c.m, gen);

      const Replay expected =
          sequential_replay(c.kind, c.d, c.n, c.shards, c.round_balls, c.m, gen_replay);
      EXPECT_EQ(engine.copy_loads(), expected.loads);
      // Loads alone cannot see over-deferral (cleanup replays a needlessly
      // deferred ball exactly), so the counters are compared too.
      EXPECT_EQ(engine.counters(), expected.counters);
      EXPECT_EQ(engine.sync_rounds(), expected.counters.rounds / c.shards);
      if (c.repeats_probed_bin) {
        EXPECT_GT(expected.repeats_of_probed_bin, 0u);
      }
      if (c.promotes && layout == core::StateLayout::kCompact) {
        std::uint64_t promotions = 0;
        for (std::uint32_t s = 0; s < c.shards; ++s) {
          promotions += engine.shard_state(s).compact_promotions();
        }
        EXPECT_GT(promotions, 0u);
      }
      EXPECT_EQ(engine.balls(), c.m);
      EXPECT_EQ(engine.probes(), c.m * c.d);
      // The engine consumed exactly one word of the caller's stream (the
      // nested master seed) — the two engines are in lockstep afterwards.
      EXPECT_EQ(gen(), gen_replay());
    }
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
  for (const core::StateLayout layout :
       {core::StateLayout::kWide, core::StateLayout::kCompact}) {
    SCOPED_TRACE(std::string(core::to_string(layout)));
    ShardOptions opt;
    opt.shards = 3;
    opt.layout = layout;
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
  for (const std::uint32_t t : {2u, 3u, 4u, 5u, 8u}) {
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
  for (const std::uint32_t t : {2u, 4u}) {
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
  // Past the thread ceiling, even with bins to spare. Construction only:
  // no run() is ever asked to start that many workers.
  ShardOptions ceiling;
  ceiling.shards = kMaxShards;
  EXPECT_NO_THROW(ShardedAllocator("greedy[2]", 1u << 20, ceiling));
  ShardOptions over;
  over.shards = kMaxShards + 1;
  EXPECT_THROW(ShardedAllocator("greedy[2]", 1u << 20, over), std::invalid_argument);
  EXPECT_THROW(ShardedProtocol("greedy[2]", over), std::invalid_argument);
  EXPECT_THROW((void)core::make_protocol("shards[5000]:greedy[2]"),
               std::invalid_argument);
  EXPECT_NO_THROW((void)core::make_protocol("shards[256]:greedy[2]"));
  // Unknown inner spec still fails through the registry.
  EXPECT_THROW(ShardedAllocator("no-such-rule", 64, two), std::invalid_argument);
  // One shard is no engine mode: shards[1]:spec is the streaming core.
  ShardOptions one;
  one.shards = 1;
  EXPECT_THROW(ShardedAllocator("greedy[2]", 64, one), std::invalid_argument);
  EXPECT_THROW(ShardedAllocator("adaptive", 64, one), std::invalid_argument);
  EXPECT_THROW(ShardedProtocol("greedy[2]", one), std::invalid_argument);
  EXPECT_THROW(ShardedProtocol("greedy[2]", none), std::invalid_argument);
  EXPECT_NO_THROW(ShardedProtocol("greedy[2]", two));
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
  // One shard is a name prefix on the streaming core, not an engine.
  EXPECT_EQ(core::make_streaming_allocator("shards[1]:cuckoo[2,4]", 64)->name(),
            "shards[1]:cuckoo[2,4]");
  EXPECT_THROW((void)core::make_rule("shards[1]:greedy[2]", 64, 0),
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
