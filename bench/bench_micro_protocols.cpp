/// bench_micro_protocols — google-benchmark timings for the protocol hot
/// loops: nanoseconds per placed ball at a fixed instance shape. This turns
/// the paper's probe counts into wall-clock throughput numbers.
///
/// Two regimes: the classic cache-resident n = 2^16 cases, and the
/// giant-scale n = 2^24 cases where the load array lives in DRAM and
/// throughput is decided by how many of the d random reads per ball are in
/// flight at once — the regime the probe lookahead (core/probe.hpp) and
/// the compact BinState layout target. The *Giant benches enable engine
/// exclusivity, so the lookahead is on (placements are bit-identical
/// either way; only speed changes).

#include <benchmark/benchmark.h>

#include "bbb/core/bin_state.hpp"
#include "bbb/core/concurrent_adaptive.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace {

constexpr std::uint32_t kBins = 1 << 16;

// Each iteration places one full stage of kBins balls through a fresh
// rule + BinState pair; items_processed reports per-ball cost.
void run_streaming_bench(benchmark::State& state, const char* spec) {
  bbb::rng::Engine gen(7);
  for (auto _ : state) {
    state.PauseTiming();
    bbb::core::StreamingAllocator alloc(kBins,
                                        bbb::core::make_rule(spec, kBins, kBins));
    state.ResumeTiming();
    for (std::uint32_t i = 0; i < kBins; ++i) {
      benchmark::DoNotOptimize(alloc.place(gen));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBins);
}

// Giant-n streaming: one long-lived allocator (a fresh 2^24-bin state per
// iteration would spend the iteration in memset), each iteration streams a
// 2^20-ball chunk; the load array (64 MiB wide, 16 MiB compact) stays far
// beyond cache throughout.
constexpr std::uint32_t kGiantBins = 1 << 24;
constexpr std::uint32_t kGiantChunk = 1 << 20;

void run_giant_bench(benchmark::State& state, const char* spec,
                     bbb::core::StateLayout layout) {
  bbb::rng::Engine gen(7);
  bbb::core::StreamingAllocator alloc(
      bbb::core::BinState(kGiantBins, layout),
      bbb::core::make_rule(spec, kGiantBins, kGiantBins));
  alloc.set_engine_exclusive(true);
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < kGiantChunk; ++i) {
      benchmark::DoNotOptimize(alloc.place(gen));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kGiantChunk);
}

void BM_PlaceOneChoice(benchmark::State& state) {
  run_streaming_bench(state, "one-choice");
}
BENCHMARK(BM_PlaceOneChoice);

void BM_PlaceGreedy2(benchmark::State& state) {
  run_streaming_bench(state, "greedy[2]");
}
BENCHMARK(BM_PlaceGreedy2);

void BM_PlaceLeft2(benchmark::State& state) {
  run_streaming_bench(state, "left[2]");
}
BENCHMARK(BM_PlaceLeft2);

void BM_PlaceMemory11(benchmark::State& state) {
  run_streaming_bench(state, "memory[1,1]");
}
BENCHMARK(BM_PlaceMemory11);

void BM_PlaceAdaptive(benchmark::State& state) {
  run_streaming_bench(state, "adaptive");
}
BENCHMARK(BM_PlaceAdaptive);

void BM_PlaceThreshold(benchmark::State& state) {
  run_streaming_bench(state, "threshold");
}
BENCHMARK(BM_PlaceThreshold);

// The acceptance numbers of the giant-scale tier: greedy[2] at n = 2^24
// with the probe lookahead on, in both layouts, plus the one-choice and
// left[2] companions. Compare BM_GiantGreedy2* against a pre-lookahead
// build to see the speedup (BENCH_*.json records it per PR).
void BM_GiantOneChoice(benchmark::State& state) {
  run_giant_bench(state, "one-choice", bbb::core::StateLayout::kWide);
}
BENCHMARK(BM_GiantOneChoice);

void BM_GiantGreedy2(benchmark::State& state) {
  run_giant_bench(state, "greedy[2]", bbb::core::StateLayout::kWide);
}
BENCHMARK(BM_GiantGreedy2);

void BM_GiantGreedy2Compact(benchmark::State& state) {
  run_giant_bench(state, "greedy[2]", bbb::core::StateLayout::kCompact);
}
BENCHMARK(BM_GiantGreedy2Compact);

void BM_GiantLeft2(benchmark::State& state) {
  run_giant_bench(state, "left[2]", bbb::core::StateLayout::kWide);
}
BENCHMARK(BM_GiantLeft2);

// Batch placement kernel (core/batch_kernel.hpp): the same giant-scale
// shape driven through place_batch in 2^16-ball calls. On the compact
// layout the kernel-capable families run the vectorized wave path
// (placements bit-identical to the place() loop — the cross-path matrix in
// tests/integration/path_matrix_test.cpp is the proof); on the wide layout the
// same call degrades to the per-ball base loop, so the wide/compact pair
// isolates the kernel's contribution from the batching call shape.
constexpr std::uint32_t kBatchCall = 1 << 16;

void run_giant_batch_bench(benchmark::State& state, const char* spec,
                           bbb::core::StateLayout layout) {
  bbb::rng::Engine gen(7);
  bbb::core::StreamingAllocator alloc(
      bbb::core::BinState(kGiantBins, layout),
      bbb::core::make_rule(spec, kGiantBins, kGiantBins));
  alloc.set_engine_exclusive(true);
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < kGiantChunk; i += kBatchCall) {
      alloc.place_batch(kBatchCall, gen);
    }
    benchmark::DoNotOptimize(alloc.state().max_load());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kGiantChunk);
}

void BM_BatchOneChoiceCompact(benchmark::State& state) {
  run_giant_batch_bench(state, "one-choice", bbb::core::StateLayout::kCompact);
}
BENCHMARK(BM_BatchOneChoiceCompact);

void BM_BatchGreedy2Compact(benchmark::State& state) {
  run_giant_batch_bench(state, "greedy[2]", bbb::core::StateLayout::kCompact);
}
BENCHMARK(BM_BatchGreedy2Compact);

void BM_BatchGreedy2Wide(benchmark::State& state) {
  run_giant_batch_bench(state, "greedy[2]", bbb::core::StateLayout::kWide);
}
BENCHMARK(BM_BatchGreedy2Wide);

void BM_BatchLeft2Compact(benchmark::State& state) {
  run_giant_batch_bench(state, "left[2]", bbb::core::StateLayout::kCompact);
}
BENCHMARK(BM_BatchLeft2Compact);

// Full batch runs at m = 8n: end-to-end protocol cost including result
// materialization, reported as balls/second.
void BM_RunAdaptiveHeavy(benchmark::State& state) {
  const auto protocol = bbb::core::make_protocol("adaptive");
  bbb::rng::Engine gen(9);
  constexpr std::uint32_t n = 1 << 14;
  constexpr std::uint64_t m = 8ULL * n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol->run(m, n, gen));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_RunAdaptiveHeavy);

void BM_RunThresholdHeavy(benchmark::State& state) {
  const auto protocol = bbb::core::make_protocol("threshold");
  bbb::rng::Engine gen(9);
  constexpr std::uint32_t n = 1 << 14;
  constexpr std::uint64_t m = 8ULL * n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol->run(m, n, gen));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_RunThresholdHeavy);

// Lock-free concurrent adaptive: per-ball cost of the CAS path under
// google-benchmark's thread fan-out (each thread gets its own engine).
void BM_ConcurrentAdaptive(benchmark::State& state) {
  static bbb::core::ConcurrentAdaptiveAllocator* alloc = nullptr;
  if (state.thread_index() == 0) {
    alloc = new bbb::core::ConcurrentAdaptiveAllocator(kBins);
  }
  bbb::rng::Engine gen(1000 + static_cast<std::uint64_t>(state.thread_index()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc->place(gen));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete alloc;
    alloc = nullptr;
  }
}
BENCHMARK(BM_ConcurrentAdaptive)->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

}  // namespace
