/// The engine's time averages against a per-event reference. The engine
/// integrates the occupancy tails at level crossings and accumulates Ψ
/// through its exact parts; the reference below replays the same event
/// loop (same engine stream, a std::deque registry, the same victims) and
/// recomputes every average the direct way: each measured event adds
/// holding time x value for mean_{balls,psi,gap,max} and an O(tail_max)
/// prefix sum over the level histogram for tail[k]. The two may differ only
/// by floating-point reassociation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bbb/dyn/allocator.hpp"
#include "bbb/dyn/engine.hpp"
#include "bbb/dyn/workload.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::dyn {
namespace {

struct Reference {
  double mean_balls = 0.0;
  double mean_psi = 0.0;
  double mean_gap = 0.0;
  double mean_max = 0.0;
  std::uint32_t peak_max = 0;
  std::vector<double> tail;
  std::uint64_t final_balls = 0;
  std::uint64_t final_probes = 0;
};

Reference replay(const DynConfig& config, std::uint32_t replicate_index) {
  const auto alloc = make_streaming_allocator(config.allocator_spec, config.n,
                                              config.m_hint, config.layout);
  const auto workload = make_workload(config.workload_spec, config.n);
  rng::Engine gen = rng::SeedSequence(config.seed).engine(replicate_index);
  const DepartSelect select = alloc->rule().stable_ball_identity()
                                  ? workload->depart_select()
                                  : DepartSelect::kUniformNonemptyBin;
  const bool track_balls = select != DepartSelect::kUniformNonemptyBin;
  const bool atomic_weights =
      workload->atomic_arrivals() && alloc->rule().supports_weights();
  std::deque<std::uint32_t> live;

  Reference ref;
  std::vector<double> tail_sum(static_cast<std::size_t>(config.tail_max) + 1, 0.0);
  double balls_sum = 0.0, psi_sum = 0.0, gap_sum = 0.0, max_sum = 0.0;
  double weight_sum = 0.0;
  double prev_time = 0.0;
  for (std::uint64_t e = 1; e <= config.warmup + config.events; ++e) {
    const BinState& state = alloc->state();
    const WorkloadContext ctx{state.balls(), state.nonempty_bins()};
    const DynEvent ev = workload->next(gen, ctx);
    if (e > config.warmup) {
      const double weight = ev.time - prev_time;
      weight_sum += weight;
      balls_sum += weight * static_cast<double>(state.balls());
      psi_sum += weight * state.psi();
      gap_sum += weight * static_cast<double>(state.gap());
      max_sum += weight * static_cast<double>(state.max_load());
      if (state.max_load() > ref.peak_max) ref.peak_max = state.max_load();
      const auto& levels = state.level_counts();
      std::uint64_t below = 0;
      for (std::size_t k = 0; k < tail_sum.size(); ++k) {
        tail_sum[k] += weight * static_cast<double>(config.n - below) /
                       static_cast<double>(config.n);
        if (k < levels.size()) below += levels[k];
      }
    }
    prev_time = ev.time;

    if (ev.kind == EventKind::kArrival) {
      if (atomic_weights && ev.weight > 1) {
        const std::uint32_t bin = alloc->place_weighted(ev.weight, gen);
        if (track_balls) live.insert(live.end(), ev.weight, bin);
      } else {
        for (std::uint32_t w = 0; w < ev.weight; ++w) {
          const std::uint32_t bin = alloc->place(gen);
          if (track_balls) live.push_back(bin);
        }
      }
    } else if (ctx.balls > 0) {
      std::uint32_t bin = 0;
      if (select == DepartSelect::kUniformBall) {
        const auto idx = static_cast<std::size_t>(rng::uniform_below(gen, live.size()));
        bin = live[idx];
        live[idx] = live.back();
        live.pop_back();
      } else if (select == DepartSelect::kOldestBall) {
        bin = live.front();
        live.pop_front();
      } else {
        bin = state.sample_nonempty(gen);
      }
      alloc->remove(bin);
    }
  }
  ref.mean_balls = balls_sum / weight_sum;
  ref.mean_psi = psi_sum / weight_sum;
  ref.mean_gap = gap_sum / weight_sum;
  ref.mean_max = max_sum / weight_sum;
  for (const double sum : tail_sum) ref.tail.push_back(sum / weight_sum);
  ref.final_balls = alloc->state().balls();
  ref.final_probes = alloc->probes();
  return ref;
}

void expect_close(double engine, double reference, const std::string& what) {
  EXPECT_LE(std::abs(engine - reference), 1e-12 * std::abs(reference))
      << what << ": engine " << engine << " vs reference " << reference;
}

TEST(TimeAverages, MatchPerEventReferenceOverEverySpecAndGenerator) {
  // Every registry family at parameters valid for n = 32, under every
  // generator. churn-oldest[4000] fills during the warm-up and then wraps
  // the registry ring (4096 slots) after 96 departures; cuckoo takes the
  // recount path.
  const char* const allocators[] = {
      "one-choice",        "greedy[2]",         "left[2]",
      "memory[2,1]",       "threshold",         "threshold[2]",
      "doubling-threshold[0]",                  "adaptive",
      "adaptive-net",      "adaptive-net[2]",   "adaptive-total",
      "stale-adaptive[4]", "skewed-adaptive[50]", "batched[512]",
      "self-balancing",    "cuckoo[2,8]",       "capacities=1,3:adaptive-net",
  };
  const char* const workloads[] = {
      "supermarket[85]",  "churn[256]",        "churn-oldest[256]",
      "churn-oldest[4000]", "bursty[95,10,25]", "chains[80,110,6]",
      "weighted:chains[80,110,6]",
  };
  for (const char* allocator : allocators) {
    for (const char* workload : workloads) {
      DynConfig cfg;
      cfg.allocator_spec = allocator;
      cfg.workload_spec = workload;
      cfg.n = 32;
      // threshold's fixed bound comes from the hint: room for every load
      // these generators reach, so the rule never runs out of bins.
      cfg.m_hint = 16'384;
      cfg.warmup = 4'000;
      cfg.events = 2'000;
      cfg.stride = 0;
      cfg.seed = 2026;
      const std::string label = std::string(allocator) + " x " + workload;
      for (std::uint32_t r = 0; r < 2; ++r) {
        const DynReplicate rep = run_dynamic_replicate(cfg, r);
        const Reference ref = replay(cfg, r);
        ASSERT_EQ(rep.snapshots.size(), 1u) << label;
        EXPECT_EQ(rep.snapshots.back().balls, ref.final_balls) << label;
        EXPECT_EQ(rep.snapshots.back().probes, ref.final_probes) << label;
        expect_close(rep.mean_balls, ref.mean_balls, label + " mean_balls");
        expect_close(rep.mean_psi, ref.mean_psi, label + " mean_psi");
        expect_close(rep.mean_gap, ref.mean_gap, label + " mean_gap");
        expect_close(rep.mean_max, ref.mean_max, label + " mean_max");
        EXPECT_EQ(rep.peak_max, ref.peak_max) << label;
        ASSERT_EQ(rep.tail.size(), ref.tail.size()) << label;
        EXPECT_EQ(rep.tail[0], 1.0) << label;
        for (std::size_t k = 0; k < ref.tail.size(); ++k) {
          expect_close(rep.tail[k], ref.tail[k], label + " tail[" + std::to_string(k) + "]");
        }
      }
    }
  }
}

TEST(TimeAverages, WarmupFreeWindowStartsAtTimeZero) {
  // Without warm-up the window opens on the empty state at t = 0.
  DynConfig cfg;
  cfg.allocator_spec = "greedy[2]";
  cfg.workload_spec = "supermarket[85]";
  cfg.n = 32;
  cfg.warmup = 0;
  cfg.events = 1'500;
  const DynReplicate rep = run_dynamic_replicate(cfg, 0);
  const Reference ref = replay(cfg, 0);
  EXPECT_EQ(rep.tail[0], 1.0);
  expect_close(rep.mean_balls, ref.mean_balls, "mean_balls");
  expect_close(rep.mean_psi, ref.mean_psi, "mean_psi");
  for (std::size_t k = 0; k < ref.tail.size(); ++k) {
    expect_close(rep.tail[k], ref.tail[k], "tail[" + std::to_string(k) + "]");
  }
}

}  // namespace
}  // namespace bbb::dyn
