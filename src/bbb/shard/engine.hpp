#pragma once
/// \file engine.hpp
/// The sharded multi-core allocation engine: n bins partitioned across T
/// worker threads (shard/topology.hpp), each worker owning one
/// core::BinState plus one derived RNG substream. Workers run
/// bulk-synchronous rounds: between barriers they exchange plain
/// per-(sender, owner) arrays, and each owner does every random access to
/// its own bins. The 1-2-3-Toolkit's message count stays a counted
/// quantity (ShardCounters::messages), not traffic the engine sends.
///
/// ## Round protocol
///
/// Balls are processed in synchronized rounds of at most `round_balls`
/// balls, each round split into contiguous per-worker slices (ball order
/// is therefore globally fixed: round-major, then worker-major, then
/// slice index — never schedule-dependent). A round runs four phases,
/// each ended by a yielding barrier (par/spin_barrier.hpp), then a
/// cleanup that overlaps the next round's draw:
///
///   draw     each worker draws its balls' d probe bins (and one
///            tie-break word for greedy) from its own substream and
///            appends every probe to the request bucket of the bin's
///            owner as one 4-byte word, owner-local bin << 1 | same-ball
///            bit (set when an earlier probe of the same ball went to the
///            same owner); the probe index stays with the sender, in an
///            array parallel to the bucket;
///   serve    each owner reads its inbound buckets sender-major — global
///            ball order — setting a probe-mark bit for the first prober
///            of each of its bins (one bit per bin, 64 to a word) and
///            writing, parallel to the request, the *round-start* load
///            plus a conflict bit: a probe on a bin an earlier ball
///            already probed conflicts (a ball naming a bin twice copies
///            the reply of its own earlier request, found by walking the
///            same-ball bits back);
///   decide   each sender scatters its replies, decides every ball with
///            no conflict (least-loaded with the pre-drawn tie-break
///            word; leftmost for left[d]) and buckets the winner by its
///            owner; a conflicted ball goes to the deferred list;
///   apply    each owner applies its own winners, then inbound winners
///            sender-major (BinState::add_balls: the lean lane commit in
///            the compact layout), and zeroes the mark words this round
///            set (loads
///            were read before any winner applied, so every
///            non-conflicted ball decided on exactly the loads the
///            *sequential* process would show it — no earlier ball
///            probed, hence committed to, its bins);
///   cleanup  worker 0 replays the deferred balls serially, worker by
///            worker (already global order), against *current* loads,
///            reading and writing every shard's BinState directly. The
///            other workers start the next draw meanwhile: it touches
///            neither BinState nor the deferred lists, and the next serve
///            waits behind the next draw's barrier.
///
/// The conflict-deferral rule is what makes the engine *exactly*
/// distribution-equal to the sequential streaming core (not merely
/// approximately, as a stale-loads batch would be): every ball decides on
/// precisely the loads it would have seen at its position in the global
/// sequential order. The statistical battery in
/// tests/shard/equivalence_test.cpp cross-validates this at alpha = 1e-4,
/// and tests/shard/engine_test.cpp replays the same substreams through a
/// literal sequential simulation and demands bit-equality.
///
/// Every per-(sender, owner) array only grows, to its high-water mark, and
/// the hot loops write it through raw per-owner cursors whose capacity is
/// checked once per chunk of balls. The round loop is a template on the
/// probe count: greedy[2] runs an instance with the draw and the
/// two-choice decision inlined, every other rule the general one.
///
/// The engine implements the probe-based rules one-choice / greedy[d] /
/// left[d] (uniform capacities, d <= 8) on at least two shards. Probe
/// draws use the same rejection-sampled rng::uniform_below mapping as the
/// sequential rules, from per-shard substreams derived via
/// rng::SeedSequence nesting, so results depend only on (seed, shards,
/// round_balls) — never on thread scheduling.
///
/// `shards[1]:spec` is not an engine mode: the registry
/// (core/protocols/registry.hpp) treats it as a name prefix on the
/// sequential streaming core, so it runs every family and is bit-identical
/// to `spec` by construction.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bbb/core/bin_state.hpp"
#include "bbb/core/protocol.hpp"
#include "bbb/rng/engine.hpp"
#include "bbb/rng/xoshiro256.hpp"
#include "bbb/shard/counters.hpp"
#include "bbb/shard/topology.hpp"

namespace bbb::shard {

/// Largest d the round protocol supports (deferred-ball descriptors carry
/// a fixed probe array). The sequential core has no such cap; a larger d
/// throws at construction.
inline constexpr std::uint32_t kMaxShardD = 8;

/// Largest shard count: a run starts one thread per shard and keeps
/// shards^2 request buckets, so a larger t throws at construction, before
/// any worker exists.
inline constexpr std::uint32_t kMaxShards = 256;

/// Engine knobs beyond the inner spec and n.
struct ShardOptions {
  /// Worker threads, 2 <= shards <= min(n, kMaxShards).
  std::uint32_t shards = 2;
  /// Balls in flight per synchronized round. Clamped to
  /// [shards, 65535 * shards]; the clamp fixes the round size, so it is
  /// part of the placement contract (a slice never exceeds 65535 balls).
  /// Larger rounds amortize the barriers but defer more: a round of
  /// round_balls * d probes holds ~(round_balls * d)^2 / (2n) conflicting
  /// probe pairs, so about round_balls * d^2 / (2n) of its balls defer to
  /// the serial cleanup (0.0039 for greedy[2] at n = 2^22). The fraction
  /// is that small only while round_balls * d^2 << n: at n = 4096 the
  /// default saturates it and most balls defer.
  std::uint32_t round_balls = 8192;
  core::StateLayout layout = core::StateLayout::kWide;
  /// Unused: the probe-based rules need no total-ball hint. Kept only
  /// because existing callers still assign it.
  std::uint64_t m_hint = 0;
};

/// One-shot sharded run: construct, run(m, gen), read the merged state.
class ShardedAllocator {
 public:
  /// \param inner_spec a registry rule spec *without* modifier prefixes.
  /// \throws std::invalid_argument for unknown/invalid specs, shards < 2,
  ///         shards > n or shards > kMaxShards, a spec outside the supported
  ///         one-choice / greedy[d<=8] / left[d<=8] set, or a shard of
  ///         more than 2^31 bins (requests carry the owner-local bin in 31
  ///         bits; never the case with shards >= 2).
  ShardedAllocator(const std::string& inner_spec, std::uint32_t n, ShardOptions opt);
  ~ShardedAllocator();

  ShardedAllocator(const ShardedAllocator&) = delete;
  ShardedAllocator& operator=(const ShardedAllocator&) = delete;

  /// Place m balls. Blocking: workers are spawned, run the whole stream,
  /// and are joined before return; worker exceptions rethrow here. The
  /// engine is one-shot (\throws std::logic_error on a second call).
  /// Draws a single word from `gen` as the nested master seed for the
  /// per-shard substreams.
  void run(std::uint64_t m, rng::Engine& gen);

  /// "shards[T]:" + canonical inner rule name.
  [[nodiscard]] std::string name() const;

  [[nodiscard]] std::uint32_t n() const noexcept { return topo_.n(); }
  [[nodiscard]] std::uint32_t shards() const noexcept { return topo_.shards(); }
  [[nodiscard]] core::StateLayout layout() const noexcept { return opt_.layout; }

  // -- merged post-run reads (undefined before run()) ----------------------

  [[nodiscard]] std::uint64_t balls() const noexcept;
  [[nodiscard]] std::uint64_t probes() const noexcept;
  [[nodiscard]] std::uint32_t max_load() const noexcept;
  [[nodiscard]] std::uint32_t min_load() const noexcept;
  [[nodiscard]] std::uint32_t gap() const noexcept;
  /// Merged quadratic potential: sum_s S2_s - t^2/n — bit-identical to
  /// BinState::psi() of an unsharded state with the same loads.
  [[nodiscard]] double psi() const noexcept;
  /// Merged ln Phi from the summed raw potential weights.
  [[nodiscard]] double log_phi() const noexcept;
  /// Merged level counts: entry l = bins at load exactly l across shards.
  [[nodiscard]] std::vector<std::uint32_t> merged_level_counts() const;
  /// Concatenated per-shard loads in global bin order. O(n).
  [[nodiscard]] std::vector<std::uint32_t> copy_loads() const;
  /// The full result in batch vocabulary (materializes loads).
  [[nodiscard]] core::AllocationResult result() const;

  /// Aggregated per-shard counters (messages, cross-shard probe ratio,
  /// deferrals, request-bucket high-water) — passive, harvested by obs
  /// after run.
  [[nodiscard]] const ShardCounters& counters() const noexcept { return counters_; }
  /// Per-phase wall time and barrier wait, summed over workers.
  [[nodiscard]] const ShardPhaseTimes& phase_times() const noexcept {
    return phase_times_;
  }
  /// One shard's state, for tests. \throws std::out_of_range.
  [[nodiscard]] const core::BinState& shard_state(std::uint32_t s) const;
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// Completed synchronized rounds.
  [[nodiscard]] std::uint64_t sync_rounds() const noexcept { return sync_rounds_; }

 private:
  struct Worker;
  struct Sync;

  /// The round loop of worker s. D == 2 is the greedy[2] instance; D == 0
  /// runs any supported rule with the run-time d.
  template <std::uint32_t D>
  void worker_main(std::uint32_t s, std::uint64_t m);
  void cleanup_round();

  /// Decision kinds the round protocol implements natively.
  enum class Kind : std::uint8_t { kOneChoice, kGreedy, kLeft };

  [[nodiscard]] std::uint32_t decide_slot(const std::uint32_t* loads, std::uint32_t d,
                                          std::uint64_t aux) const noexcept;
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> group_range(
      std::uint32_t g) const noexcept;

  Topology topo_;
  ShardOptions opt_;
  std::string inner_name_;
  Kind kind_ = Kind::kOneChoice;
  std::uint32_t d_ = 1;
  std::uint64_t round_total_ = 0;  ///< balls per full round (clamped round_balls)
  bool ran_ = false;
  std::uint64_t sync_rounds_ = 0;
  ShardCounters counters_;
  ShardPhaseTimes phase_times_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Sync> sync_;
};

/// Batch Protocol wrapper so `shards[t]:spec` (t >= 2) slots into the
/// registry: run() builds a fresh wide-layout engine per call.
class ShardedProtocol final : public core::Protocol {
 public:
  /// \throws std::invalid_argument as ShardedAllocator (validated eagerly
  ///         at construction where possible; n-dependent limits re-check
  ///         inside run()).
  ShardedProtocol(std::string inner_spec, ShardOptions opt);

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] core::AllocationResult run(std::uint64_t m, std::uint32_t n,
                                           rng::Engine& gen) const override;

 private:
  std::string inner_spec_;
  std::string inner_name_;
  ShardOptions opt_;
};

}  // namespace bbb::shard
