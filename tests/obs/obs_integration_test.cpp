#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/dyn/engine.hpp"
#include "bbb/law/engine.hpp"
#include "bbb/obs/obs.hpp"
#include "bbb/obs/trace_sink.hpp"
#include "bbb/sim/runner.hpp"

namespace bbb {
namespace {

/// The headline contract of the obs layer: turning instrumentation on —
/// any level, sink or not — NEVER changes a placement. Observation reads
/// clocks and counters, not rng::Engine, so every replicate statistic is
/// bit-for-bit the one an uninstrumented run produces. These tests run
/// each tier twice, off vs full, and compare the raw records exactly
/// (EXPECT_EQ on doubles — not NEAR; identical means identical).

sim::RunSummary run_sim(core::StateLayout layout, obs::ObsLevel level,
                        const std::string& spec = "greedy[2]") {
  sim::ExperimentConfig cfg;
  cfg.protocol_spec = spec;
  cfg.m = 20'000;
  cfg.n = 2'048;
  cfg.replicates = 3;
  cfg.seed = 42;
  cfg.layout = layout;
  cfg.obs.level = level;
  return sim::run_experiment(cfg);
}

void expect_identical(const sim::RunSummary& off, const sim::RunSummary& full) {
  ASSERT_EQ(off.records.size(), full.records.size());
  for (std::size_t r = 0; r < off.records.size(); ++r) {
    const sim::ReplicateRecord& a = off.records[r];
    const sim::ReplicateRecord& b = full.records[r];
    EXPECT_EQ(a.probes, b.probes) << "replicate " << r;
    EXPECT_EQ(a.max_load, b.max_load) << "replicate " << r;
    EXPECT_EQ(a.min_load, b.min_load) << "replicate " << r;
    EXPECT_EQ(a.gap, b.gap) << "replicate " << r;
    EXPECT_EQ(a.psi, b.psi) << "replicate " << r;
    EXPECT_EQ(a.log_phi, b.log_phi) << "replicate " << r;
  }
}

TEST(ObsIntegration, SimWidePlacementsBitForBitOffVsFull) {
  expect_identical(run_sim(core::StateLayout::kWide, obs::ObsLevel::kOff),
                   run_sim(core::StateLayout::kWide, obs::ObsLevel::kFull));
}

TEST(ObsIntegration, SimCompactPlacementsBitForBitOffVsFull) {
  expect_identical(run_sim(core::StateLayout::kCompact, obs::ObsLevel::kOff),
                   run_sim(core::StateLayout::kCompact, obs::ObsLevel::kFull));
}

TEST(ObsIntegration, ShardedPlacementsBitForBitOffVsFull) {
  // The multi-shard engine times its phases on every run; the obs level
  // only decides whether the timings are folded. Placements never move.
  const std::string spec = "shards[4]:greedy[2]";
  const auto compact = core::StateLayout::kCompact;
  const sim::RunSummary off = run_sim(compact, obs::ObsLevel::kOff, spec);
  const sim::RunSummary full = run_sim(compact, obs::ObsLevel::kFull, spec);
  expect_identical(off, full);
  for (const char* key :
       {"shard.phase.draw.ns", "shard.phase.serve.ns", "shard.phase.decide.ns",
        "shard.phase.apply.ns", "shard.phase.cleanup.ns", "shard.barrier.wait_ns"}) {
    EXPECT_EQ(off.obs.find(key), nullptr) << key;
    EXPECT_NE(full.obs.find(key), nullptr) << key;
  }
  EXPECT_GT(full.obs.counter_value("shard.phase.draw.ns"), 0u);
}

TEST(ObsIntegration, DynReplicatesBitForBitOffVsFull) {
  dyn::DynConfig cfg;
  cfg.allocator_spec = "greedy[2]";
  cfg.workload_spec = "supermarket[90]";
  cfg.n = 512;
  cfg.warmup = 2'048;
  cfg.events = 4'096;
  cfg.stride = 512;
  cfg.replicates = 2;
  cfg.seed = 42;
  par::ThreadPool pool(2);

  cfg.obs.level = obs::ObsLevel::kOff;
  const dyn::DynSummary off = dyn::run_dynamic(cfg, pool);
  cfg.obs.level = obs::ObsLevel::kFull;
  const dyn::DynSummary full = dyn::run_dynamic(cfg, pool);

  ASSERT_EQ(off.replicates.size(), full.replicates.size());
  for (std::size_t r = 0; r < off.replicates.size(); ++r) {
    const dyn::DynReplicate& a = off.replicates[r];
    const dyn::DynReplicate& b = full.replicates[r];
    EXPECT_EQ(a.mean_balls, b.mean_balls) << "replicate " << r;
    EXPECT_EQ(a.mean_psi, b.mean_psi) << "replicate " << r;
    EXPECT_EQ(a.mean_gap, b.mean_gap) << "replicate " << r;
    EXPECT_EQ(a.peak_max, b.peak_max) << "replicate " << r;
    EXPECT_EQ(a.probes_per_ball, b.probes_per_ball) << "replicate " << r;
    EXPECT_EQ(a.dropped_departures, b.dropped_departures) << "replicate " << r;
    EXPECT_EQ(a.tail, b.tail) << "replicate " << r;
  }
  // Full level actually measured something the off run did not.
  EXPECT_TRUE(off.obs.empty());
  EXPECT_GT(full.replicates.front().place_ns.count(), 0u);
  EXPECT_EQ(full.obs.counter_value("dyn.event.dropped_departures"), 0u);
}

TEST(ObsIntegration, LawSamplesBitForBitOffVsFull) {
  law::LawConfig cfg;
  cfg.protocol_spec = "one-choice";
  cfg.m = 1u << 16;
  cfg.n = 1u << 16;
  cfg.replicates = 3;
  cfg.seed = 42;

  cfg.obs.level = obs::ObsLevel::kOff;
  const law::LawSummary off = law::run_law_experiment(cfg);
  cfg.obs.level = obs::ObsLevel::kFull;
  const law::LawSummary full = law::run_law_experiment(cfg);

  EXPECT_EQ(off.max_load.mean(), full.max_load.mean());
  EXPECT_EQ(off.gap.mean(), full.gap.mean());
  EXPECT_EQ(off.level_counts, full.level_counts);
  EXPECT_TRUE(off.obs.empty());
  const obs::SnapshotEntry* wall = full.obs.find("law.replicate.wall_ns");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->histogram.count(), cfg.replicates);
}

TEST(ObsIntegration, OffLevelLeavesNoSnapshot) {
  const sim::RunSummary off = run_sim(core::StateLayout::kWide, obs::ObsLevel::kOff);
  EXPECT_TRUE(off.obs.empty());
  EXPECT_EQ(off.records.front().wall_ns, 0u);
  EXPECT_EQ(off.records.front().counters, obs::CoreCounters{});
}

TEST(ObsIntegration, EveryRegistryFamilyAccountsProbesAndBalls) {
  // The per-protocol accounting the paper's cost claims rest on: every one
  // of the registry's protocol families reports its probe count and its
  // placed balls through the same two counters. One replicate per family.
  // protocol_specs() lists parameterized templates; instantiate each with
  // small concrete arguments — and fail loudly when a new family appears
  // without a row here.
  const std::map<std::string, std::string> concrete{
      {"one-choice", "one-choice"},
      {"greedy[d]", "greedy[2]"},
      {"left[d]", "left[2]"},
      {"memory[d,k]", "memory[1,1]"},
      {"threshold", "threshold"},
      {"threshold[slack]", "threshold[1]"},
      {"doubling-threshold[guess]", "doubling-threshold[4]"},
      {"adaptive", "adaptive"},
      {"adaptive[slack]", "adaptive[1]"},
      {"adaptive-net", "adaptive-net"},
      {"adaptive-net[slack]", "adaptive-net[1]"},
      {"adaptive-total", "adaptive-total"},
      {"adaptive-total[slack]", "adaptive-total[1]"},
      {"stale-adaptive[delta]", "stale-adaptive[8]"},
      {"skewed-adaptive[s*100]", "skewed-adaptive[50]"},
      {"batched[capacity]", "batched[64]"},
      {"self-balancing", "self-balancing"},
      // Half-load cuckoo (capacity 2 * m): at load factor 1.0 the kick
      // budget can run out and park arrivals in the stash, which is
      // accounted as placed < m.
      {"cuckoo[d,k]", "cuckoo[2,16]"},
      {"capacities=c0,c1,...:spec", "capacities=1,2:greedy[2]"},
      {"shards[t]:spec", "shards[2]:greedy[2]"},
  };
  std::vector<std::string> specs;
  for (const std::string& tmpl : core::protocol_specs()) {
    ASSERT_TRUE(concrete.count(tmpl) == 1)
        << "registry family '" << tmpl << "' has no concrete instance here";
    specs.push_back(concrete.at(tmpl));
  }
  ASSERT_GE(specs.size(), 14u);
  for (const std::string& spec : specs) {
    sim::ExperimentConfig cfg;
    cfg.protocol_spec = spec;
    cfg.m = 4'096;
    cfg.n = 512;
    cfg.replicates = 1;
    cfg.seed = 42;
    cfg.obs.level = obs::ObsLevel::kCounters;
    const sim::RunSummary s = sim::run_experiment(cfg);
    EXPECT_EQ(s.obs.counter_value("core.ball.placed"), cfg.m) << spec;
    EXPECT_GT(s.obs.counter_value("core.probe.count"), 0u) << spec;
    const obs::SnapshotEntry* wall = s.obs.find("sim.replicate.wall_ns");
    ASSERT_NE(wall, nullptr) << spec;
    EXPECT_EQ(wall->histogram.count(), 1u) << spec;
  }
}

TEST(ObsIntegration, CompactTierReportsLookaheadAndSideTableTraffic) {
  sim::ExperimentConfig cfg;
  cfg.protocol_spec = "greedy[2]";
  cfg.m = 1u << 16;
  cfg.n = 1u << 12;
  cfg.replicates = 1;
  cfg.seed = 42;
  cfg.layout = core::StateLayout::kCompact;
  cfg.obs.level = obs::ObsLevel::kCounters;
  const sim::RunSummary s = sim::run_experiment(cfg);
  // The streaming path consumes pre-drawn probe words in blocks, so at
  // m = 2^16 the lookahead must have refilled at least once.
  EXPECT_GT(s.obs.counter_value("core.lookahead.refills"), 0u);
  // m/n = 16 < 255: no bin can cross the 8-bit lane limit here, so the
  // compact side-table counters must not appear (fold_into registers a
  // machinery counter only when it fired).
  EXPECT_EQ(s.obs.find("state.compact.promotions"), nullptr);
  // Compact greedy[2] is kernel-eligible, so the wave kernel must have
  // run, and its fast and fallback paths together must cover every ball:
  // a silent eligibility regression would otherwise stream per ball.
  EXPECT_GT(s.obs.counter_value("core.batch.batches"), 0u);
  EXPECT_EQ(s.obs.counter_value("core.batch.fast_balls") +
                s.obs.counter_value("core.batch.fallback_balls"),
            cfg.m);
}

TEST(ObsIntegration, WideTierStreamsAndReportsLookahead) {
  // The wide layout runs the same streaming replicate path as compact, so
  // its runs carry the core machinery counters too.
  sim::ExperimentConfig cfg;
  cfg.protocol_spec = "greedy[2]";
  cfg.m = 1u << 16;
  cfg.n = 1u << 12;
  cfg.replicates = 1;
  cfg.seed = 42;
  cfg.layout = core::StateLayout::kWide;
  cfg.obs.level = obs::ObsLevel::kCounters;
  const sim::RunSummary s = sim::run_experiment(cfg);
  EXPECT_GT(s.obs.counter_value("core.lookahead.refills"), 0u);
}

TEST(ObsIntegration, TraceFileIsWellFormedEndToEnd) {
  const std::string path = ::testing::TempDir() + "obs_integration_trace.jsonl";
  {
    sim::ExperimentConfig cfg;
    cfg.protocol_spec = "greedy[2]";
    cfg.m = 10'000;
    cfg.n = 1'024;
    cfg.replicates = 2;
    cfg.seed = 42;
    cfg.obs.level = obs::ObsLevel::kFull;
    cfg.obs.sink = obs::TraceSink::open(path);
    (void)sim::run_experiment(cfg);
    // run_start + one replicate line each + summary.
    EXPECT_EQ(cfg.obs.sink->records_written(), 4u);
  }
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines.front().find("\"event\":\"run_start\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\":\"replicate\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"event\":\"summary\""), std::string::npos);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].front(), '{') << "line " << i;
    EXPECT_EQ(lines[i].back(), '}') << "line " << i;
    EXPECT_NE(lines[i].find("\"schema\":\"bbb-obs-v1\""), std::string::npos);
    EXPECT_NE(lines[i].find("\"seq\":" + std::to_string(i)), std::string::npos);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bbb
