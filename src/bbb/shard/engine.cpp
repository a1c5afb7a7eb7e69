#include "bbb/shard/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/spec.hpp"
#include "bbb/par/spin_barrier.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::shard {

namespace {

/// Thrown inside a worker when another worker set the abort flag; carries
/// no information (the original error lives in that worker's slot).
struct Aborted {};

/// Set in a serve reply when an earlier ball of the round already probed
/// the bin. A round-start load >= 2^31 also reads as a conflict; that only
/// defers the ball to the exact cleanup replay, so placements stay exact.
constexpr std::uint32_t kConflictBit = 0x80000000U;

/// Bit 0 of a request, under the owner-local bin (`local << 1`): an
/// earlier probe of the same ball went to the same owner, so the request
/// just before this one in the bucket belongs to the same ball.
constexpr std::uint32_t kSameBallBit = 1;

/// Requests ahead of the current one whose bins serve prefetches, so the
/// owner's random mark-word and load reads overlap instead of serializing.
constexpr std::size_t kPrefetchAhead = 16;

/// Balls drawn or decided between two capacity checks of the per-owner
/// arrays: a chunk appends at most kChunkBalls * d entries to one bucket.
constexpr std::uint32_t kChunkBalls = 256;

void prefetch_write(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1, 3);
#else
  (void)p;
#endif
}

/// The one check of what the round protocol runs: at least two shards and
/// a one-choice / greedy[d] / left[d] inner spec with d <= kMaxShardD.
/// Returns the parsed inner spec (d == 0 is the registry's own error).
core::ParsedSpec parse_round_spec(const std::string& inner_spec, std::uint32_t shards) {
  const std::string spec = "protocol spec 'shards[" + std::to_string(shards) + "]:" +
                           inner_spec + "': ";
  if (shards < 2) {
    throw std::invalid_argument(spec + "the sharded engine needs at least 2 shards "
                                       "(shards[1]: runs on the streaming core)");
  }
  const core::ParsedSpec s = core::parse_spec(inner_spec, "protocol");
  if (s.name != "one-choice" && s.name != "greedy" && s.name != "left") {
    throw std::invalid_argument(spec + "the sharded engine implements one-choice / "
                                       "greedy[d] / left[d] only");
  }
  if (!s.args.empty() && s.args[0] > kMaxShardD) {
    throw std::invalid_argument(spec + "d must be <= " + std::to_string(kMaxShardD));
  }
  return s;
}

/// greedy[2]'s decision: the less loaded slot, a tie broken by
/// lemire_map(aux, 2) of the ball's pre-drawn tie-break word.
std::uint32_t greedy2_slot(std::uint32_t l0, std::uint32_t l1,
                           std::uint64_t aux) noexcept {
  const auto tie = static_cast<std::uint32_t>(rng::lemire_map(aux, 2));
  return l0 == l1 ? tie : (l1 < l0 ? 1 : 0);
}

/// Serve's reply to request j of a bucket whose bin is already marked.
/// If the same ball named the bin in an earlier request, the ball either
/// probed it first or already conflicts there, and that reply is copied;
/// otherwise an earlier ball probed it and this one conflicts. Draw
/// appends ball-major, so the ball's earlier requests to this owner are
/// the run just before j, each entry of the run after its first carrying
/// the same-ball bit (at most d - 1 entries).
std::uint32_t marked_reply(const std::uint32_t* in, const std::uint32_t* out,
                           std::size_t j, std::uint32_t load) noexcept {
  const std::uint32_t bin = in[j] >> 1;
  for (std::size_t k = j; (in[k] & kSameBallBit) != 0; --k) {
    if ((in[k - 1] >> 1) == bin) return out[k - 1];
  }
  return load | kConflictBit;
}

}  // namespace

/// One worker's shard: its bins, its RNG substream, and all per-round
/// scratch. Between two barriers every field has one writer: an outbox is
/// filled by this worker (the sender) and read by its owner in the next
/// phase, except `rep`, which the owner writes in serve; the deferred list
/// is read by worker 0 in cleanup.
struct ShardedAllocator::Worker {
  /// One (sender, owner) pair's arrays, owned by the sender. They only
  /// grow, to the high-water mark, so steady-state rounds neither allocate
  /// nor zero-fill; the hot loops write them through the cursors below.
  struct Outbox {
    std::vector<std::uint32_t> req;    ///< owner-local bin << 1 | same-ball bit
    std::vector<std::uint32_t> probe;  ///< the sender's probe index, parallel to req
    std::vector<std::uint32_t> rep;    ///< the owner's replies (load | conflict)
    std::vector<std::uint32_t> win;    ///< decided winners, owner-local
    std::uint32_t req_len = 0;         ///< requests this round, set after draw
    std::uint32_t win_len = 0;         ///< winners this round, set after decide
  };

  /// Raw write positions into one outbox, valid within one phase.
  struct Cursor {
    std::uint32_t* req = nullptr;
    std::uint32_t* probe = nullptr;
    std::uint32_t* win = nullptr;
    std::uint32_t first = 0;  ///< the owner's first global bin
  };

  core::BinState state;
  rng::Engine eng{0};

  // Per-round scratch of this worker's slice, sized once to the maximum.
  std::vector<std::uint32_t> probe_bins;   ///< slice * d global bins
  std::vector<std::uint32_t> probe_loads;  ///< slice * d replies (load | conflict)
  std::vector<std::uint64_t> aux;          ///< greedy tie-break words
  /// One probe mark per local bin, 64 to a word: set by the bin's first
  /// prober in serve, its word zeroed again in apply, so it is all-zero
  /// between rounds.
  std::vector<std::uint64_t> marks;

  std::vector<Outbox> out;  ///< [owner]
  std::vector<Cursor> cur;  ///< [owner]

  struct Deferred {
    std::uint64_t aux = 0;
    std::array<std::uint32_t, kMaxShardD> bins{};
  };
  std::vector<Deferred> deferred;

  ShardCounters counters;
  ShardPhaseTimes times;
  std::exception_ptr error;

  Worker(std::uint32_t bins, core::StateLayout layout, std::uint32_t shards)
      : state(bins, layout),
        marks((static_cast<std::size_t>(bins) + 63) / 64, 0),
        out(shards),
        cur(shards) {}

  /// Room for `need` more requests at every owner's cursor. A bucket
  /// grows to at least twice its size and never shrinks.
  void reserve_requests(std::size_t need) {
    for (std::size_t o = 0; o < out.size(); ++o) {
      Outbox& box = out[o];
      const auto used = static_cast<std::size_t>(cur[o].req - box.req.data());
      if (box.req.size() - used >= need) continue;
      const std::size_t size = std::max(used + need, 2 * box.req.size());
      box.req.resize(size);
      box.probe.resize(size);
      cur[o].req = box.req.data() + used;
      cur[o].probe = box.probe.data() + used;
    }
  }

  /// Room for `need` more winners at every owner's cursor, grown the same
  /// way.
  void reserve_winners(std::size_t need) {
    for (std::size_t o = 0; o < out.size(); ++o) {
      Outbox& box = out[o];
      const auto used = static_cast<std::size_t>(cur[o].win - box.win.data());
      if (box.win.size() - used >= need) continue;
      box.win.resize(std::max(used + need, 2 * box.win.size()));
      cur[o].win = box.win.data() + used;
    }
  }

  /// Append the probe of global bin `bin` (slice probe index `probe`) to
  /// its owner's bucket; `same` is the same-ball bit.
  void push_request(std::uint32_t owner, std::uint32_t bin, std::uint32_t probe,
                    std::uint32_t same) noexcept {
    Cursor& c = cur[owner];
    *c.req++ = (bin - c.first) << 1 | same;
    *c.probe++ = probe;
  }
};

/// The round barrier and the abort flag a failing worker raises.
struct ShardedAllocator::Sync {
  par::SpinBarrier barrier;
  std::atomic<bool> abort{false};

  explicit Sync(std::uint32_t t) : barrier(t) {}

  void wait() {
    if (!barrier.arrive_and_wait(abort)) throw Aborted{};
  }
};

ShardedAllocator::ShardedAllocator(const std::string& inner_spec, std::uint32_t n,
                                   ShardOptions opt)
    : topo_(n, opt.shards), opt_(opt) {
  // The registry validates the arguments (d > 0, left[d] with d <= n) and
  // gives the canonical name.
  inner_name_ = core::make_rule(inner_spec, n)->name();
  const core::ParsedSpec s = parse_round_spec(inner_spec, topo_.shards());
  kind_ = s.name == "greedy" ? Kind::kGreedy
          : s.name == "left" ? Kind::kLeft
                             : Kind::kOneChoice;
  d_ = s.args.empty() ? 1 : static_cast<std::uint32_t>(s.args[0]);
  // A request is local << 1 | same-ball bit: every owner-local bin must
  // fit in 31 bits. Shard 0 is the largest, and ceil(n / 2) <= 2^31.
  if (topo_.shard_bins(0) > (1U << 31)) {
    throw std::invalid_argument("ShardedAllocator: a shard of more than 2^31 bins");
  }
  const std::uint64_t cap = 65535ULL * topo_.shards();
  round_total_ = std::clamp<std::uint64_t>(opt_.round_balls, topo_.shards(), cap);
}

ShardedAllocator::~ShardedAllocator() = default;

std::string ShardedAllocator::name() const {
  return "shards[" + std::to_string(topo_.shards()) + "]:" + inner_name_;
}

std::pair<std::uint32_t, std::uint32_t> ShardedAllocator::group_range(
    std::uint32_t g) const noexcept {
  // left[d]'s partition, verbatim (left_d.cpp): group g = [g*n/d, (g+1)*n/d).
  const std::uint64_t n = topo_.n();
  const auto first = static_cast<std::uint32_t>(g * n / d_);
  const auto last =
      static_cast<std::uint32_t>((static_cast<std::uint64_t>(g) + 1) * n / d_);
  return {first, last};
}

std::uint32_t ShardedAllocator::decide_slot(const std::uint32_t* loads, std::uint32_t d,
                                            std::uint64_t aux) const noexcept {
  if (kind_ == Kind::kOneChoice) return 0;
  if (d == 2) {
    // The general paths below, unrolled: left[2] keeps the left slot on a
    // tie.
    if (kind_ == Kind::kGreedy) return greedy2_slot(loads[0], loads[1], aux);
    return loads[1] < loads[0] ? 1 : 0;
  }
  if (kind_ == Kind::kLeft) {
    // Vöcking's always-go-left: strict < keeps the leftmost minimum.
    std::uint32_t best = 0;
    for (std::uint32_t g = 1; g < d; ++g) {
      if (loads[g] < loads[best]) best = g;
    }
    return best;
  }
  // greedy[d]: least loaded, ties broken uniformly by the ball's pre-drawn
  // tie-break word (same distribution as the sequential reservoir draw).
  std::uint32_t best = 0;
  std::uint32_t ties = 1;
  for (std::uint32_t g = 1; g < d; ++g) {
    if (loads[g] < loads[best]) {
      best = g;
      ties = 1;
    } else if (loads[g] == loads[best]) {
      ++ties;
    }
  }
  if (ties == 1) return best;
  const auto pick = static_cast<std::uint32_t>(rng::lemire_map(aux, ties));
  std::uint32_t seen = 0;
  for (std::uint32_t g = 0; g < d; ++g) {
    if (loads[g] == loads[best]) {
      if (seen == pick) return g;
      ++seen;
    }
  }
  return best;  // unreachable
}

void ShardedAllocator::run(std::uint64_t m, rng::Engine& gen) {
  if (ran_) throw std::logic_error("ShardedAllocator::run: engine is one-shot");
  ran_ = true;
  // One word of the caller's stream seeds the nested per-shard substreams
  // (SeedSequence nesting: replicate seed -> shard seeds), so a sharded
  // run consumes the caller's engine deterministically regardless of T.
  const std::uint64_t nested = gen();
  const std::uint32_t t = topo_.shards();
  const auto slice_max =
      static_cast<std::uint32_t>((round_total_ + t - 1) / t);  // <= 65535
  const rng::SeedSequence seq(nested);

  workers_.clear();
  workers_.reserve(t);
  for (std::uint32_t s = 0; s < t; ++s) {
    auto w = std::make_unique<Worker>(topo_.shard_bins(s), opt_.layout, t);
    w->eng = seq.engine(s);
    w->probe_bins.resize(static_cast<std::size_t>(slice_max) * d_);
    w->probe_loads.resize(static_cast<std::size_t>(slice_max) * d_);
    if (kind_ == Kind::kGreedy) w->aux.resize(slice_max);
    for (std::uint32_t o = 0; o < t; ++o) w->cur[o].first = topo_.first_bin(o);
    workers_.push_back(std::move(w));
  }
  sync_ = std::make_unique<Sync>(t);

  const bool greedy2 = kind_ == Kind::kGreedy && d_ == 2;
  std::vector<std::thread> threads;
  threads.reserve(t);
  for (std::uint32_t s = 0; s < t; ++s) {
    threads.emplace_back([this, s, m, greedy2] {
      if (greedy2) {
        worker_main<2>(s, m);
      } else {
        worker_main<0>(s, m);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::uint32_t s = 0; s < t; ++s) {
    if (workers_[s]->error) std::rethrow_exception(workers_[s]->error);
  }
#ifndef NDEBUG
  // Apply zeroes every mark word its round set: no mark outlives a round.
  for (const auto& w : workers_) {
    assert(std::all_of(w->marks.begin(), w->marks.end(),
                       [](std::uint64_t word) { return word == 0; }));
  }
#endif
  for (std::uint32_t s = 0; s < t; ++s) {
    counters_ += workers_[s]->counters;
    phase_times_ += workers_[s]->times;
  }
  sync_rounds_ = (m + round_total_ - 1) / round_total_;
  sync_.reset();
}

template <std::uint32_t D>
void ShardedAllocator::worker_main(std::uint32_t s, std::uint64_t m) {
  static_assert(D == 0 || D == 2, "a general and a greedy[2] instance only");
  using Clock = std::chrono::steady_clock;
  Worker& w = *workers_[s];
  const std::uint32_t t = topo_.shards();
  const std::uint32_t n = topo_.n();
  const std::uint32_t d = D != 0 ? D : d_;
  const bool greedy = D == 2 || kind_ == Kind::kGreedy;
  const bool left = D == 0 && kind_ == Kind::kLeft;
  const std::uint64_t rounds = (m + round_total_ - 1) / round_total_;

  // Every phase and barrier wait ends with a lap onto its timer.
  Clock::time_point mark = Clock::now();
  const auto lap = [&mark](std::uint64_t& ns) {
    const Clock::time_point now = Clock::now();
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark).count());
    mark = now;
  };
  const auto barrier = [&] {
    sync_->wait();
    lap(w.times.barrier_wait_ns);
  };

  try {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const std::uint64_t b = std::min(round_total_, m - r * round_total_);
      const auto slice_lo = [&](std::uint32_t q) {
        return static_cast<std::uint32_t>(q * b / t);
      };
      const std::uint32_t cnt = slice_lo(s + 1) - slice_lo(s);

      // --- draw: probes from this shard's substream, each appended to its
      // owner's bucket. Draw order is fixed (ball-major, slot-major), so
      // the stream depends only on the substream seed. Touches neither
      // BinState nor the deferred lists, so it may overlap the previous
      // round's cleanup on worker 0.
      for (std::uint32_t o = 0; o < t; ++o) {
        w.cur[o].req = w.out[o].req.data();
        w.cur[o].probe = w.out[o].probe.data();
      }
      for (std::uint32_t i0 = 0; i0 < cnt; i0 += kChunkBalls) {
        const std::uint32_t i1 = std::min(cnt, i0 + kChunkBalls);
        w.reserve_requests(static_cast<std::size_t>(i1 - i0) * d);
        for (std::uint32_t i = i0; i < i1; ++i) {
          std::array<std::uint32_t, kMaxShardD> owners{};
          for (std::uint32_t g = 0; g < d; ++g) {
            std::uint32_t bin = 0;
            if (left) {
              const auto [first, last] = group_range(g);
              const auto pick = rng::uniform_below(w.eng, last - first);
              bin = first + static_cast<std::uint32_t>(pick);
            } else {
              bin = static_cast<std::uint32_t>(rng::uniform_below(w.eng, n));
            }
            const std::uint32_t probe = i * d + g;
            w.probe_bins[probe] = bin;
            const std::uint32_t owner = topo_.shard_of(bin);
            // The same-ball bit, from the ball's owners so far (in registers
            // at d = 2: one compare).
            std::uint32_t same = 0;
            for (std::uint32_t k = 0; k < g; ++k) {
              same |= owners[k] == owner ? kSameBallBit : 0;
            }
            owners[g] = owner;
            w.push_request(owner, bin, probe, same);
          }
          if (greedy) w.aux[i] = w.eng();
        }
      }
      for (std::uint32_t o = 0; o < t; ++o) {
        Worker::Outbox& box = w.out[o];
        const auto len = static_cast<std::uint32_t>(w.cur[o].req - box.req.data());
        box.req_len = len;
        if (box.rep.size() < len) box.rep.resize(box.req.size());
        if (o == s) continue;
        w.counters.cross_shard_probes += len;
        w.counters.messages += 2ULL * len;  // request + reply
        w.counters.ring_highwater = std::max<std::uint64_t>(w.counters.ring_highwater,
                                                            len);
      }
      w.counters.probes += static_cast<std::uint64_t>(cnt) * d;
      w.counters.balls += cnt;
      lap(w.times.draw_ns);
      barrier();

      // --- serve: answer every probe on this shard's bins, sender-major,
      // which is global ball order. The first prober of a bin marks it; a
      // later ball probing it conflicts. Loads are round-start loads:
      // nothing is applied before apply.
      for (std::uint32_t from = 0; from < t; ++from) {
        Worker::Outbox& box = workers_[from]->out[s];
        const std::uint32_t* in = box.req.data();
        std::uint32_t* rep = box.rep.data();
        const std::size_t len = box.req_len;
        // A ball's first request to an owner carries no same-ball bit, so
        // marked_reply's walk back stops inside the bucket.
        assert(len == 0 || (in[0] & kSameBallBit) == 0);
        for (std::size_t j = 0; j < len; ++j) {
          if (j + kPrefetchAhead < len) {
            const std::uint32_t ahead = in[j + kPrefetchAhead] >> 1;
            prefetch_write(&w.marks[ahead / 64]);
            w.state.prefetch(ahead);
          }
          const std::uint32_t bin = in[j] >> 1;
          std::uint64_t& word = w.marks[bin / 64];
          const std::uint64_t bit = std::uint64_t{1} << (bin % 64);
          if ((word & bit) == 0) {
            word |= bit;
            rep[j] = w.state.load(bin);
          } else {
            rep[j] = marked_reply(in, rep, j, w.state.load(bin));
          }
        }
      }
      lap(w.times.serve_ns);
      barrier();

      // --- decide: scatter the replies, decide every ball without a
      // conflict on its round-start loads, bucket winners by owner.
      w.deferred.clear();
      for (std::uint32_t o = 0; o < t; ++o) {
        const Worker::Outbox& box = w.out[o];
        const std::uint32_t* probe = box.probe.data();
        const std::uint32_t* rep = box.rep.data();
        for (std::size_t j = 0; j < box.req_len; ++j) w.probe_loads[probe[j]] = rep[j];
        w.cur[o].win = w.out[o].win.data();
      }
      std::uint64_t commits = 0;
      for (std::uint32_t i0 = 0; i0 < cnt; i0 += kChunkBalls) {
        const std::uint32_t i1 = std::min(cnt, i0 + kChunkBalls);
        w.reserve_winners(i1 - i0);
        for (std::uint32_t i = i0; i < i1; ++i) {
          const std::size_t at = static_cast<std::size_t>(i) * d;
          const std::uint32_t* loads = w.probe_loads.data() + at;
          const std::uint32_t* bins = w.probe_bins.data() + at;
          std::uint32_t slot = 0;
          if constexpr (D == 2) {
            if (((loads[0] | loads[1]) & kConflictBit) != 0) {
              Worker::Deferred& def = w.deferred.emplace_back();
              def.aux = w.aux[i];
              def.bins[0] = bins[0];
              def.bins[1] = bins[1];
              continue;
            }
            slot = greedy2_slot(loads[0], loads[1], w.aux[i]);
          } else {
            const std::uint64_t aux = greedy ? w.aux[i] : 0;
            std::uint32_t flags = 0;
            for (std::uint32_t g = 0; g < d; ++g) flags |= loads[g];
            if ((flags & kConflictBit) != 0) {
              Worker::Deferred& def = w.deferred.emplace_back();
              def.aux = aux;
              std::copy(bins, bins + d, def.bins.begin());
              continue;
            }
            slot = decide_slot(loads, d, aux);
          }
          const std::uint32_t bin = bins[slot];
          const std::uint32_t owner = topo_.shard_of(bin);
          Worker::Cursor& c = w.cur[owner];
          *c.win++ = bin - c.first;
          commits += owner != s ? 1 : 0;  // a cross-shard commit
        }
      }
      for (std::uint32_t o = 0; o < t; ++o) {
        w.out[o].win_len = static_cast<std::uint32_t>(w.cur[o].win - w.out[o].win.data());
      }
      w.counters.messages += commits;
      w.counters.deferred_balls += w.deferred.size();
      lap(w.times.decide_ns);
      barrier();

      // --- apply: own winners first, then inbound winners sender-major
      // (a fixed order, so the floating-point Phi sum is reproducible);
      // then zero the mark words this round's requests touched. Every set
      // mark belongs to a bin probed this round, so whole words clear
      // exactly.
      w.state.add_balls(w.out[s].win.data(), w.out[s].win_len);
      for (std::uint32_t from = 0; from < t; ++from) {
        if (from == s) continue;
        const Worker::Outbox& box = workers_[from]->out[s];
        w.state.add_balls(box.win.data(), box.win_len);
      }
      for (std::uint32_t from = 0; from < t; ++from) {
        const Worker::Outbox& box = workers_[from]->out[s];
        const std::uint32_t* in = box.req.data();
        for (std::size_t j = 0; j < box.req_len; ++j) w.marks[(in[j] >> 1) / 64] = 0;
      }
      ++w.counters.rounds;
      lap(w.times.apply_ns);
      barrier();

      // --- cleanup: worker 0 replays the deferred balls; everyone else
      // goes straight on to the next draw.
      if (s == 0) {
        cleanup_round();
        lap(w.times.cleanup_ns);
      }
    }
  } catch (const Aborted&) {
    // Another worker failed; its slot carries the real error.
  } catch (...) {
    w.error = std::current_exception();
    sync_->abort.store(true, std::memory_order_seq_cst);
  }
}

void ShardedAllocator::cleanup_round() {
  // Worker order is global ball order (round slices are contiguous), and
  // each list is in slice order: replay them back to back, serially,
  // against current loads, reading and writing every shard directly.
  ShardCounters& counters = workers_[0]->counters;
  std::array<std::uint32_t, kMaxShardD> loads{};
  for (const auto& src : workers_) {
    for (const Worker::Deferred& def : src->deferred) {
      for (std::uint32_t g = 0; g < d_; ++g) {
        const std::uint32_t owner = topo_.shard_of(def.bins[g]);
        loads[g] = workers_[owner]->state.load(topo_.local_of(def.bins[g], owner));
        if (owner != 0) counters.messages += 2;  // request + reply
      }
      const std::uint32_t bin = def.bins[decide_slot(loads.data(), d_, def.aux)];
      const std::uint32_t owner = topo_.shard_of(bin);
      workers_[owner]->state.add_ball(topo_.local_of(bin, owner));
      if (owner != 0) ++counters.messages;  // commit
    }
  }
}

// -- merged reads ------------------------------------------------------------

std::uint64_t ShardedAllocator::balls() const noexcept {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->state.balls();
  return total;
}

std::uint64_t ShardedAllocator::probes() const noexcept { return counters_.probes; }

std::uint32_t ShardedAllocator::max_load() const noexcept {
  std::uint32_t best = 0;
  for (const auto& w : workers_) best = std::max(best, w->state.max_load());
  return best;
}

std::uint32_t ShardedAllocator::min_load() const noexcept {
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  for (const auto& w : workers_) best = std::min(best, w->state.min_load());
  return best;
}

std::uint32_t ShardedAllocator::gap() const noexcept { return max_load() - min_load(); }

double ShardedAllocator::psi() const noexcept {
  std::uint64_t sum_sq = 0;
  std::uint64_t t = 0;
  for (const auto& w : workers_) {
    sum_sq += w->state.sum_squares();
    t += w->state.balls();
  }
  // BinState::psi()'s exact expression over the merged integer parts.
  const auto td = static_cast<double>(t);
  return static_cast<double>(sum_sq) - td * td / static_cast<double>(topo_.n());
}

double ShardedAllocator::log_phi() const noexcept {
  double weight = 0.0;
  std::uint64_t t = 0;
  for (const auto& w : workers_) {
    weight += w->state.phi_weight();
    t += w->state.balls();
  }
  const double average = static_cast<double>(t) / static_cast<double>(topo_.n());
  return std::log(weight) + (average + 2.0) * std::log1p(core::kPotentialEpsilon);
}

std::vector<std::uint32_t> ShardedAllocator::merged_level_counts() const {
  std::vector<std::uint32_t> merged(static_cast<std::size_t>(max_load()) + 1, 0);
  for (const auto& w : workers_) {
    const auto& counts = w->state.level_counts();
    const std::size_t top =
        std::min(counts.size(), static_cast<std::size_t>(w->state.max_load()) + 1);
    for (std::size_t l = 0; l < top; ++l) merged[l] += counts[l];
  }
  return merged;
}

std::vector<std::uint32_t> ShardedAllocator::copy_loads() const {
  std::vector<std::uint32_t> loads;
  loads.reserve(topo_.n());
  for (const auto& w : workers_) {
    const std::vector<std::uint32_t> part = w->state.copy_loads();
    loads.insert(loads.end(), part.begin(), part.end());
  }
  return loads;
}

core::AllocationResult ShardedAllocator::result() const {
  core::AllocationResult out;
  out.loads = copy_loads();
  out.balls = balls();
  out.probes = probes();
  out.rounds = sync_rounds_;
  return out;
}

const core::BinState& ShardedAllocator::shard_state(std::uint32_t s) const {
  if (s >= workers_.size()) throw std::out_of_range("shard_state: no such shard");
  return workers_[s]->state;
}

// -- ShardedProtocol ---------------------------------------------------------

ShardedProtocol::ShardedProtocol(std::string inner_spec, ShardOptions opt)
    : inner_spec_(std::move(inner_spec)), opt_(opt) {
  opt_.layout = core::StateLayout::kWide;  // the batch path materializes loads
  inner_name_ = core::make_protocol(inner_spec_)->name();
  parse_round_spec(inner_spec_, opt_.shards);
}

std::string ShardedProtocol::name() const {
  return "shards[" + std::to_string(opt_.shards) + "]:" + inner_name_;
}

core::AllocationResult ShardedProtocol::run(std::uint64_t m, std::uint32_t n,
                                            rng::Engine& gen) const {
  core::validate_run_args(m, n);
  ShardedAllocator engine(inner_spec_, n, opt_);
  engine.run(m, gen);
  return engine.result();
}

}  // namespace bbb::shard
