#include "bbb/core/batch_kernel.hpp"

#include <algorithm>

#include "bbb/core/simd/batch_ops.hpp"

namespace bbb::core {

namespace {

/// Engine64 source chaining wave buffer → lookahead → engine: the exact
/// live path consumes precisely the words the fast path would have, in
/// the same FIFO order, then falls through to fresh draws.
class FifoSource {
 public:
  FifoSource(const std::uint64_t* words, std::uint32_t& pos, std::uint32_t fill,
             ProbeLookahead& lookahead, rng::Engine& gen) noexcept
      : words_(words), pos_(pos), fill_(fill), lookahead_(lookahead), gen_(gen) {}

  [[nodiscard]] std::uint64_t operator()() {
    return pos_ != fill_ ? words_[pos_++] : lookahead_.next(gen_);
  }

  static constexpr std::uint64_t min() noexcept { return rng::Engine::min(); }
  static constexpr std::uint64_t max() noexcept { return rng::Engine::max(); }

 private:
  const std::uint64_t* words_;
  std::uint32_t& pos_;
  std::uint32_t fill_;
  ProbeLookahead& lookahead_;
  rng::Engine& gen_;
};

/// Lemire rejection threshold for `bound`: a raw word is a rejection
/// candidate iff low64(word * bound) < threshold (2^64 mod bound; 0 for
/// powers of two, where uniform_below never rejects).
[[nodiscard]] std::uint64_t reject_threshold(std::uint32_t bound) noexcept {
  const auto b = static_cast<std::uint64_t>(bound);
  return (0 - b) % b;
}

/// Fill/map/prefetch proceed in chunks of this many words rather than
/// whole waves: by the time the commit walk touches a chunk's lanes, the
/// later chunks' serial RNG chains have aged its prefetches by hundreds
/// of cycles — enough to cover an L3 round trip. Whole-wave scheduling
/// issues the first prefetch immediately before its first use and the
/// walk eats the full miss latency.
constexpr std::uint32_t kMapChunk = 128;

}  // namespace

void BatchPlacer::ensure_scratch() {
  if (!words_.empty()) return;
  words_.resize(kWaveWords + 2);  // tie bit is read at k+2 with k+2 <= fill
  // + 4: the greedy[2] walk speculatively preloads candidate bins at
  // k + 4 before knowing whether the current ball ties. Entries past the
  // mapped fill are zero (or stale bins from a prior wave) — always valid
  // bin indices, and the preload is discarded at the wave boundary.
  bins_.resize(kWaveWords + 4);
}

void BatchPlacer::place_one_choice(BinState& state, std::uint64_t count,
                                   ProbeLookahead& lookahead, rng::Engine& gen,
                                   std::uint64_t& probes, std::uint32_t* out) {
  if (count == 0) return;
  ensure_scratch();
  ++batches_;
  const std::uint32_t n = state.n();
  const simd::MapStream stream{n, 0, reject_threshold(n)};
  const simd::SimdOps& ops = simd::active_ops();
  std::uint64_t placed_total = 0;
  while (placed_total < count) {
    ++waves_;
    const std::uint64_t remaining = count - placed_total;
    const auto quota = static_cast<std::uint32_t>(
        remaining < kWaveWords ? remaining : kWaveWords);
    const std::uint32_t fill = quota;  // exactly one word per ball
    bool reject = false;
    for (std::uint32_t c = 0; c < fill; c += kMapChunk) {
      const std::uint32_t stop = c + kMapChunk < fill ? c + kMapChunk : fill;
      lookahead.next_block(gen, words_.data() + c, stop - c);
      reject |= ops.map_words(words_.data() + c, stop - c, stream, stream,
                              bins_.data() + c);
      for (std::uint32_t i = c; i < stop; ++i) state.prefetch(bins_[i]);
    }
    if (!reject) {
      // One-choice reads no loads to decide, so the commit is
      // add_balls over the wave's bins: it reads the live lane per ball,
      // so duplicates within the wave are naturally serialized, and the
      // rare near-promotion bin takes the exact add_ball.
      state.add_balls(bins_.data(), quota);
      if (out != nullptr) std::copy_n(bins_.data(), quota, out + placed_total);
      probes += quota;
      fast_balls_ += quota;
    } else {
      // A rejection candidate shifts every later word's meaning: replay
      // the whole wave through uniform_below over the buffered words.
      fallback_balls_ += quota;
      std::uint32_t k = 0;
      FifoSource src(words_.data(), k, fill, lookahead, gen);
      for (std::uint32_t placed = 0; placed < quota; ++placed) {
        const auto bin = static_cast<std::uint32_t>(rng::uniform_below(src, n));
        ++probes;
        state.add_ball(bin);
        if (out != nullptr) out[placed_total + placed] = bin;
      }
    }
    placed_total += quota;
  }
  // Every path consumes at least one word per ball, so the wave buffer is
  // always drained exactly: no residue to hand back.
}

void BatchPlacer::place_greedy2(BinState& state, std::uint64_t count,
                                ProbeLookahead& lookahead, rng::Engine& gen,
                                std::uint64_t& probes, std::uint32_t* out) {
  if (count == 0) return;
  ensure_scratch();
  ++batches_;
  const std::uint32_t n = state.n();
  const simd::MapStream stream{n, 0, reject_threshold(n)};
  const std::uint8_t* lanes = state.compact_lanes();
  const simd::SimdOps& ops = simd::active_ops();
  std::uint64_t placed_total = 0;
  std::uint32_t res = 0;  // words_[0, res): drawn by a prior wave, unconsumed
  while (placed_total < count) {
    ++waves_;
    const std::uint64_t remaining = count - placed_total;
    const std::uint32_t room = (kWaveWords - res) / 2;
    const auto quota =
        static_cast<std::uint32_t>(remaining < room ? remaining : room);
    const std::uint32_t fill = res + 2 * quota;
    // Residue words carried over from the prior wave get remapped (and
    // re-screened: an unconsumed rejection candidate must keep tripping
    // the fallback) before the chunked fill takes over. Both map streams
    // are the same bound here, so chunk parity is immaterial.
    bool reject = ops.map_words(words_.data(), res, stream, stream, bins_.data());
    for (std::uint32_t c = res; c < fill; c += kMapChunk) {
      const std::uint32_t stop = c + kMapChunk < fill ? c + kMapChunk : fill;
      lookahead.next_block(gen, words_.data() + c, stop - c);
      reject |= ops.map_words(words_.data() + c, stop - c, stream, stream,
                              bins_.data() + c);
      for (std::uint32_t i = c; i < stop; ++i) state.prefetch(bins_[i]);
    }
    std::uint32_t k = 0;
    std::uint32_t placed = 0;
    if (!reject) {
      // The commit walk reads the live lane slab, so an in-wave
      // duplicate simply sees the earlier ball's placement — exactly the
      // scalar stream's view. The winner is c1 unless c2 is strictly
      // less loaded, or on a tie when the tie word selects c2
      // (uniform_below(gen, 2) in least_loaded_of's two-choice path).
      // Local pointers: the commit's byte stores alias the member
      // vectors' data pointers under TBAA, so spelling bins_[...] /
      // words_[...] would reload both pointers every ball.
      const std::uint32_t* bins = bins_.data();
      const std::uint64_t* words = words_.data();
      BinState::BatchMetrics m = state.batch_begin();
      // The walk is latency-bound on the serial chain
      //   k -> lanes[bins[k]] -> eq -> k', not throughput: each ball's
      // cursor advance (2 or 3 words) waits on its tie test. Speculation
      // breaks the chain: while ball i resolves, preload the candidate
      // bins and lanes for BOTH possible cursor positions (k+2 no-tie,
      // k+3 tie) — three loads each, all independent of eq — then pick
      // with selects once eq lands. Preloaded lanes are one commit stale,
      // so each ball patches them against the previous ball's (bin, new
      // lane) before use; the exact-path commit reloads its lane so the
      // patch value is right even across a side-table promotion. The
      // preload may read bins_[k+4] past fill — always a valid (zeroed or
      // prior-wave) bin index, discarded at the wave boundary.
      std::uint32_t pb = 0xFFFFFFFFu;  // previous commit: bin, new lane
      std::uint32_t pl = 0;            // (no bin matches the sentinel)
      std::uint32_t cb0 = bins[k];
      std::uint32_t cb1 = bins[k + 1];
      std::uint32_t cl0 = lanes[cb0];
      std::uint32_t cl1 = lanes[cb1];
      while (placed < quota) {
        if (k + 2 > fill) break;  // second candidate word not drawn yet
        const std::uint32_t b0 = cb0;
        const std::uint32_t b1 = cb1;
        const std::uint32_t l0 = b0 == pb ? pl : cl0;
        const std::uint32_t l1 = b1 == pb ? pl : cl1;
        std::uint32_t load0 = l0;
        std::uint32_t load1 = l1;
        if ((l0 | l1) > kFastLoadMax) [[unlikely]] {
          load0 = state.load(b0);  // side-table-aware true loads
          load1 = state.load(b1);
        }
        const std::uint32_t eq = load0 == load1 ? 1u : 0u;
        if (k + 2 + eq > fill) break;  // tie word not drawn: next wave
        const auto tb = static_cast<std::uint32_t>(~words[k + 2] >> 63);
        // sel is random data: the sign-bit subtraction keeps the select
        // arithmetic (the `<` spelling if-converts into a ~30%-taken
        // branch that mispredicts its way to ~5 cycles a ball).
        const std::uint32_t lt = (load1 - load0) >> 31;
        const std::uint32_t sel = lt | (eq & tb);
        // Speculative next-ball preloads; issue before the commit so the
        // loads overlap the bookkeeping.
        const std::uint32_t nb2 = bins[k + 2];
        const std::uint32_t nb3 = bins[k + 3];
        const std::uint32_t nb4 = bins[k + 4];
        const std::uint32_t nl2 = lanes[nb2];
        const std::uint32_t nl3 = lanes[nb3];
        const std::uint32_t nl4 = lanes[nb4];
        const std::uint32_t bin = sel != 0 ? b1 : b0;
        const std::uint32_t lane = sel != 0 ? l1 : l0;
        if (lane <= kFastLoadMax) [[likely]] {
          state.batch_add_unit_lane(m, bin, lane);
          pb = bin;
          pl = lane + 1;
        } else {
          state.batch_end(m);  // exact path mutates the checked-out counters
          state.add_ball(bin);
          m = state.batch_begin();
          pb = bin;
          pl = lanes[bin];  // fresh: add_ball may have promoted the lane
        }
        if (out != nullptr) out[placed_total + placed] = bin;
        ++placed;
        k += 2 + eq;
        // eq is random data too: XOR-masked blends instead of ?: (which
        // GCC if-converts into a ~46%-taken branch at the loop tail,
        // mispredicting away the speculation win).
        const std::uint32_t emask = 0u - eq;
        cb0 = nb2 ^ ((nb2 ^ nb3) & emask);
        cl0 = nl2 ^ ((nl2 ^ nl3) & emask);
        cb1 = nb3 ^ ((nb3 ^ nb4) & emask);
        cl1 = nl3 ^ ((nl3 ^ nl4) & emask);
      }
      state.batch_end(m);
      probes += 2ULL * placed;
      fast_balls_ += placed;
    } else {
      // The exact scalar path replays the whole quota on the very same
      // words. A walk that merely ran out of words (ties consume 3, the
      // wave provisions 2 per ball) is NOT a fallback: the shortfall
      // rolls into the next wave's quota.
      fallback_balls_ += quota;
      FifoSource src(words_.data(), k, fill, lookahead, gen);
      while (placed < quota) {
        const std::uint32_t best = least_loaded_of(
            src, n, 2, probes,
            [&state](std::uint32_t b) { return state.load(b); });
        state.add_ball(best);
        if (out != nullptr) out[placed_total + placed] = best;
        ++placed;
      }
    }
    // Residue invariant: fill = res + 2*quota and every committed ball
    // consumed >= 2 words, so fill - k <= 2. (A zero-ball wave — quota 1
    // whose tie word lies beyond the wave — leaves res = 2 and retries
    // with a deeper buffer, so progress is guaranteed.)
    res = fill - k;
    for (std::uint32_t i = 0; i < res; ++i) words_[i] = words_[k + i];
    placed_total += placed;
  }
  if (res != 0) lookahead.push_residue(words_.data(), res);
}

void BatchPlacer::place_left2(BinState& state, std::uint64_t count,
                              ProbeLookahead& lookahead, rng::Engine& gen,
                              std::uint64_t& probes, std::uint32_t* out) {
  if (count == 0) return;
  ensure_scratch();
  ++batches_;
  const std::uint32_t n = state.n();
  // LeftDRule::group_range with d = 2: group 0 = [0, n/2), group 1 =
  // [n/2, n). left[2] consumes exactly two words per ball (deterministic
  // tie-break), so within a wave the word at index i belongs to group
  // i % 2 — waves always start ball-aligned and never leave residue,
  // which is precisely map_words' even/odd stream split.
  const std::uint32_t s0 = n / 2;
  const std::uint32_t s1 = n - s0;
  const simd::MapStream even{s0, 0, reject_threshold(s0)};
  const simd::MapStream odd{s1, s0, reject_threshold(s1)};
  const std::uint8_t* lanes = state.compact_lanes();
  const simd::SimdOps& ops = simd::active_ops();
  std::uint64_t placed_total = 0;
  while (placed_total < count) {
    ++waves_;
    const std::uint64_t remaining = count - placed_total;
    const std::uint32_t room = kWaveWords / 2;
    const auto quota =
        static_cast<std::uint32_t>(remaining < room ? remaining : room);
    const std::uint32_t fill = 2 * quota;
    // Chunk starts are multiples of kMapChunk (even), so the even/odd
    // stream split survives the chunked map calls.
    bool reject = false;
    for (std::uint32_t c = 0; c < fill; c += kMapChunk) {
      const std::uint32_t stop = c + kMapChunk < fill ? c + kMapChunk : fill;
      lookahead.next_block(gen, words_.data() + c, stop - c);
      reject |= ops.map_words(words_.data() + c, stop - c, even, odd,
                              bins_.data() + c);
      for (std::uint32_t i = c; i < stop; ++i) state.prefetch(bins_[i]);
    }
    std::uint32_t k = 0;
    std::uint32_t placed = 0;
    if (!reject) {
      // Vöcking's always-go-left tie-break against the live slab: the
      // right candidate wins only on a strictly smaller load.
      // Same local-pointer hoist as the greedy[2] walk.
      const std::uint32_t* bins = bins_.data();
      BinState::BatchMetrics m = state.batch_begin();
      for (; placed < quota; ++placed, k += 2) {
        const std::uint32_t b0 = bins[k];
        const std::uint32_t b1 = bins[k + 1];
        const std::uint32_t l0 = lanes[b0];
        const std::uint32_t l1 = lanes[b1];
        std::uint32_t load0 = l0;
        std::uint32_t load1 = l1;
        if ((l0 | l1) > kFastLoadMax) [[unlikely]] {
          load0 = state.load(b0);  // side-table-aware true loads
          load1 = state.load(b1);
        }
        // Sign-bit subtraction for the same reason as the greedy[2] walk:
        // keep the random select branchless.
        const std::uint32_t sel = (load1 - load0) >> 31;
        const std::uint32_t bin = sel != 0 ? b1 : b0;
        const std::uint32_t lane = sel != 0 ? l1 : l0;
        if (lane <= kFastLoadMax) [[likely]] {
          state.batch_add_unit_lane(m, bin, lane);
        } else {
          state.batch_end(m);  // exact path mutates the checked-out counters
          state.add_ball(bin);
          m = state.batch_begin();
        }
        if (out != nullptr) out[placed_total + placed] = bin;
      }
      state.batch_end(m);
      probes += 2ULL * placed;
      fast_balls_ += placed;
    } else {
      fallback_balls_ += quota;
      FifoSource src(words_.data(), k, fill, lookahead, gen);
      for (; placed < quota; ++placed) {
        // The exact live decision, word for word LeftDRule::do_place's
        // uniform path: one draw per group, strict `<` comparison.
        const auto c0 = static_cast<std::uint32_t>(rng::uniform_below(src, s0));
        const auto c1 =
            s0 + static_cast<std::uint32_t>(rng::uniform_below(src, s1));
        const std::uint32_t l0 = state.load(c0);
        const std::uint32_t l1 = state.load(c1);
        const std::uint32_t best = l1 < l0 ? c1 : c0;
        probes += 2;
        state.add_ball(best);
        if (out != nullptr) out[placed_total + placed] = best;
      }
    }
    placed_total += quota;
  }
}

}  // namespace bbb::core
