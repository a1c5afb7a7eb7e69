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

/// Requests ahead of the current one whose bins serve prefetches, so the
/// owner's random mark-word and load reads overlap instead of serializing.
constexpr std::size_t kPrefetchAhead = 16;

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

/// One probe in a (sender, owner) request bucket.
struct Request {
  std::uint32_t bin = 0;    ///< owner-local bin
  std::uint32_t probe = 0;  ///< sender's slice probe index: ball * d + slot
};

/// Serve's reply to request j of a bucket whose bin is already marked.
/// If the same ball named the bin in an earlier request, the ball either
/// probed it first or already conflicts there, and that reply is copied;
/// otherwise an earlier ball probed it and this one conflicts. Draw
/// appends ball-major, so the ball's earlier requests to this owner are
/// the run just before j with probe indices >= `ball_probe0` (at most
/// d - 1 entries).
std::uint32_t marked_reply(const std::vector<Request>& in, const std::uint32_t* out,
                           std::size_t j, std::uint32_t ball_probe0,
                           std::uint32_t load) noexcept {
  for (std::size_t k = j; k > 0 && in[k - 1].probe >= ball_probe0; --k) {
    if (in[k - 1].bin == in[j].bin) return out[k - 1];
  }
  return load | kConflictBit;
}

}  // namespace

/// One worker's shard: its bins, its RNG substream, and all per-round
/// scratch. Between two barriers every field has one writer: the bucket
/// vectors indexed by owner are filled by this worker (the sender) and
/// read by the owner in the next phase, `rep[o]` is written by owner o in
/// serve, and the deferred list is read by worker 0 in cleanup.
struct ShardedAllocator::Worker {
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

  std::vector<std::vector<Request>> req;        ///< [owner] outbound probes
  std::vector<std::vector<std::uint32_t>> rep;  ///< [owner] replies, parallel to req
  std::vector<std::vector<std::uint32_t>> win;  ///< [owner] decided winners, owner-local

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
        req(shards),
        rep(shards),
        win(shards) {}
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
    // The general paths below, unrolled: a tie draws lemire_map(aux, 2)
    // for greedy and keeps the left slot for left[2].
    const std::uint32_t tie =
        kind_ == Kind::kGreedy ? static_cast<std::uint32_t>(rng::lemire_map(aux, 2)) : 0;
    const std::uint32_t less = loads[1] < loads[0] ? 1 : 0;
    return loads[0] == loads[1] ? tie : less;
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
    workers_.push_back(std::move(w));
  }
  sync_ = std::make_unique<Sync>(t);

  std::vector<std::thread> threads;
  threads.reserve(t);
  for (std::uint32_t s = 0; s < t; ++s) {
    threads.emplace_back([this, s, m] { worker_main(s, m); });
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

void ShardedAllocator::worker_main(std::uint32_t s, std::uint64_t m) {
  using Clock = std::chrono::steady_clock;
  Worker& w = *workers_[s];
  const std::uint32_t t = topo_.shards();
  const std::uint32_t n = topo_.n();
  const std::uint32_t d = d_;
  const FastDivU32 ball_of_probe(d);
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
      for (std::vector<Request>& bucket : w.req) bucket.clear();
      for (std::uint32_t i = 0; i < cnt; ++i) {
        for (std::uint32_t g = 0; g < d; ++g) {
          std::uint32_t bin = 0;
          if (kind_ == Kind::kLeft) {
            const auto [first, last] = group_range(g);
            bin = first + static_cast<std::uint32_t>(
                              rng::uniform_below(w.eng, last - first));
          } else {
            bin = static_cast<std::uint32_t>(rng::uniform_below(w.eng, n));
          }
          const std::uint32_t probe = i * d + g;
          w.probe_bins[probe] = bin;
          const std::uint32_t owner = topo_.shard_of(bin);
          w.req[owner].push_back(Request{topo_.local_of(bin, owner), probe});
        }
        if (kind_ == Kind::kGreedy) w.aux[i] = w.eng();
      }
      for (std::uint32_t o = 0; o < t; ++o) {
        const std::size_t len = w.req[o].size();
        w.rep[o].resize(len);
        if (o == s) continue;
        w.counters.cross_shard_probes += len;
        w.counters.messages += 2 * len;  // request + reply
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
        const std::vector<Request>& in = workers_[from]->req[s];
        std::uint32_t* out = workers_[from]->rep[s].data();
        for (std::size_t j = 0; j < in.size(); ++j) {
          if (j + kPrefetchAhead < in.size()) {
            const std::uint32_t ahead = in[j + kPrefetchAhead].bin;
            prefetch_write(&w.marks[ahead / 64]);
            w.state.prefetch(ahead);
          }
          const Request q = in[j];
          std::uint64_t& word = w.marks[q.bin / 64];
          const std::uint64_t bit = std::uint64_t{1} << (q.bin % 64);
          if ((word & bit) == 0) {
            word |= bit;
            out[j] = w.state.load(q.bin);
          } else {
            out[j] = marked_reply(in, out, j, ball_of_probe(q.probe) * d,
                                  w.state.load(q.bin));
          }
        }
      }
      lap(w.times.serve_ns);
      barrier();

      // --- decide: scatter the replies, decide every ball without a
      // conflict on its round-start loads, bucket winners by owner.
      w.deferred.clear();
      for (std::vector<std::uint32_t>& bucket : w.win) bucket.clear();
      for (std::uint32_t o = 0; o < t; ++o) {
        const std::vector<Request>& sent = w.req[o];
        const std::vector<std::uint32_t>& got = w.rep[o];
        for (std::size_t j = 0; j < sent.size(); ++j) {
          w.probe_loads[sent[j].probe] = got[j];
        }
      }
      for (std::uint32_t i = 0; i < cnt; ++i) {
        const std::size_t at = static_cast<std::size_t>(i) * d;
        const std::uint32_t* loads = w.probe_loads.data() + at;
        const std::uint32_t* bins = w.probe_bins.data() + at;
        const std::uint64_t aux = kind_ == Kind::kGreedy ? w.aux[i] : 0;
        std::uint32_t flags = 0;
        for (std::uint32_t g = 0; g < d; ++g) flags |= loads[g];
        if ((flags & kConflictBit) != 0) {
          Worker::Deferred& def = w.deferred.emplace_back();
          def.aux = aux;
          std::copy(bins, bins + d, def.bins.begin());
          ++w.counters.deferred_balls;
          continue;
        }
        const std::uint32_t bin = bins[decide_slot(loads, d, aux)];
        const std::uint32_t owner = topo_.shard_of(bin);
        w.win[owner].push_back(topo_.local_of(bin, owner));
        w.counters.messages += owner != s ? 1 : 0;  // a cross-shard commit
      }
      lap(w.times.decide_ns);
      barrier();

      // --- apply: own winners first, then inbound winners sender-major
      // (a fixed order, so the floating-point Phi sum is reproducible);
      // then zero the mark words this round's requests touched. Every set
      // mark belongs to a bin probed this round, so whole words clear
      // exactly.
      for (const std::uint32_t lb : w.win[s]) w.state.add_ball(lb);
      for (std::uint32_t from = 0; from < t; ++from) {
        if (from == s) continue;
        for (const std::uint32_t lb : workers_[from]->win[s]) w.state.add_ball(lb);
      }
      for (std::uint32_t from = 0; from < t; ++from) {
        for (const Request& q : workers_[from]->req[s]) w.marks[q.bin / 64] = 0;
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
