#include "bbb/sim/runner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bbb/par/thread_pool.hpp"

namespace bbb::sim {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.protocol_spec = "adaptive";
  cfg.m = 1000;
  cfg.n = 100;
  cfg.replicates = 8;
  cfg.seed = 42;
  return cfg;
}

TEST(Runner, SummaryCountsMatchReplicates) {
  const RunSummary s = run_experiment(small_config());
  EXPECT_EQ(s.probes.count(), 8u);
  EXPECT_EQ(s.records.size(), 8u);
  EXPECT_EQ(s.protocol_name, "adaptive");
  EXPECT_EQ(s.failures, 0u);
}

TEST(Runner, KeepRecordsOffDropsRawRowsButNotStats) {
  // Large sweeps switch keep_records off so thousands of summaries do not
  // retain every raw replicate row; the folded statistics are unaffected.
  ExperimentConfig cfg = small_config();
  const RunSummary with = run_experiment(cfg);
  cfg.keep_records = false;
  const RunSummary without = run_experiment(cfg);
  EXPECT_TRUE(without.records.empty());
  EXPECT_EQ(without.records.capacity(), 0u);  // memory actually released
  EXPECT_EQ(without.probes.count(), 8u);
  EXPECT_DOUBLE_EQ(without.probes.mean(), with.probes.mean());
  EXPECT_DOUBLE_EQ(without.psi.mean(), with.psi.mean());
  EXPECT_DOUBLE_EQ(without.max_load.mean(), with.max_load.mean());
}

TEST(Runner, StatsAgreeWithRawRecords) {
  const RunSummary s = run_experiment(small_config());
  double mean_probes = 0;
  for (const auto& r : s.records) mean_probes += r.probes;
  mean_probes /= static_cast<double>(s.records.size());
  EXPECT_NEAR(s.probes.mean(), mean_probes, 1e-9);
}

TEST(Runner, DeterministicAcrossThreadCounts) {
  // The determinism contract: 1-thread and 4-thread pools produce
  // bit-identical summaries.
  const ExperimentConfig cfg = small_config();
  par::ThreadPool p1(1), p4(4);
  const RunSummary a = run_experiment(cfg, p1);
  const RunSummary b = run_experiment(cfg, p4);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].probes, b.records[i].probes);
    EXPECT_DOUBLE_EQ(a.records[i].psi, b.records[i].psi);
    EXPECT_DOUBLE_EQ(a.records[i].max_load, b.records[i].max_load);
  }
  EXPECT_DOUBLE_EQ(a.probes.mean(), b.probes.mean());
  EXPECT_DOUBLE_EQ(a.psi.variance(), b.psi.variance());
}

TEST(Runner, ReplicatesAreIndependent) {
  const RunSummary s = run_experiment(small_config());
  // All replicates identical would mean broken seeding.
  bool any_differ = false;
  for (std::size_t i = 1; i < s.records.size(); ++i) {
    if (s.records[i].probes != s.records[0].probes) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(Runner, RunReplicateMatchesSummaryRecord) {
  const ExperimentConfig cfg = small_config();
  const RunSummary s = run_experiment(cfg);
  const ReplicateRecord r3 = run_replicate(cfg, 3);
  EXPECT_DOUBLE_EQ(r3.probes, s.records[3].probes);
  EXPECT_DOUBLE_EQ(r3.psi, s.records[3].psi);
}

TEST(Runner, ProbesPerBall) {
  const RunSummary s = run_experiment(small_config());
  EXPECT_NEAR(s.probes_per_ball(), s.probes.mean() / 1000.0, 1e-12);
}

TEST(Runner, FailuresAreCounted) {
  // Cuckoo over capacity: every replicate must report failure.
  ExperimentConfig cfg;
  cfg.protocol_spec = "cuckoo[2,2]";
  cfg.m = 600;  // > 2 * 128 slots
  cfg.n = 128;
  cfg.replicates = 4;
  const RunSummary s = run_experiment(cfg);
  EXPECT_EQ(s.failures, 4u);
}

TEST(Runner, Validation) {
  ExperimentConfig cfg = small_config();
  cfg.replicates = 0;
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.protocol_spec = "bogus";
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
}

TEST(Runner, DescribeMentionsKeyFields) {
  const std::string desc = small_config().describe();
  EXPECT_NE(desc.find("adaptive"), std::string::npos);
  EXPECT_NE(desc.find("m=1000"), std::string::npos);
  EXPECT_NE(desc.find("n=100"), std::string::npos);
}

}  // namespace
}  // namespace bbb::sim
