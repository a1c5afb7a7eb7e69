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

void expect_same_record(const ReplicateRecord& a, const ReplicateRecord& b) {
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_EQ(a.min_load, b.min_load);
  EXPECT_EQ(a.gap, b.gap);
  EXPECT_EQ(a.psi, b.psi);
  EXPECT_EQ(a.log_phi, b.log_phi);
  EXPECT_EQ(a.reallocations, b.reallocations);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.shard_counters, b.shard_counters);
  EXPECT_EQ(a.wall_ns, b.wall_ns);
  EXPECT_EQ(a.load_histogram, b.load_histogram);
}

TEST(Runner, LayoutSelectsStorageNotResults) {
  // --layout picks the BinState storage only: every field of every
  // replicate record is identical wide vs compact, doubles included, for
  // every registry family — batched[c]'s LW rounds included.
  struct Row {
    std::string spec;
    std::uint64_t m;
  };
  std::vector<Row> rows;
  for (const char* spec :
       {"one-choice", "greedy[2]", "greedy[3]", "left[2]", "memory[1,1]", "threshold",
        "threshold[0]", "threshold[2]", "doubling-threshold[0]", "adaptive",
        "adaptive[0]", "adaptive[2]", "adaptive-net", "adaptive-net[2]", "adaptive-total",
        "adaptive-total[2]", "stale-adaptive[4]", "skewed-adaptive[50]", "self-balancing",
        "capacities=1,2:greedy[2]", "shards[1]:adaptive", "shards[2]:greedy[2]"}) {
    for (const std::uint64_t m : {0, 1500, 10000}) rows.push_back({spec, m});
  }
  // Capacity-bounded families: m stays within c * n.
  for (const char* spec : {"batched[2]", "capacities=1,2:batched[2]", "cuckoo[2,4]"}) {
    for (const std::uint64_t m : {0, 1500}) rows.push_back({spec, m});
  }
  par::ThreadPool pool(2);
  for (const Row& row : rows) {
    ExperimentConfig cfg;
    cfg.protocol_spec = row.spec;
    cfg.m = row.m;
    cfg.n = 1000;
    cfg.replicates = 2;
    cfg.seed = 7;
    cfg.layout = core::StateLayout::kWide;
    const RunSummary wide = run_experiment(cfg, pool);
    cfg.layout = core::StateLayout::kCompact;
    const RunSummary compact = run_experiment(cfg, pool);
    ASSERT_EQ(wide.records.size(), compact.records.size());
    for (std::size_t r = 0; r < wide.records.size(); ++r) {
      SCOPED_TRACE(row.spec + " m=" + std::to_string(row.m) + " replicate " +
                   std::to_string(r));
      expect_same_record(wide.records[r], compact.records[r]);
    }
  }
}

TEST(Runner, SingleShardPrefixIsTheBareSpec) {
  // shards[1]: is a name prefix on the streaming core: for every registry
  // family, shards[1]:X and X give the same record field for field — core
  // counters and load histogram included — and only the name differs. A
  // bare batched[c] is the one family whose batch form is not the place
  // loop (it runs LW rounds); like every prefixed batched[c],
  // shards[1]:batched[c] runs the streaming capacity-bounded form, so its
  // reference is capacities=1:batched[c], the same form on the same
  // uniform bins.
  par::ThreadPool pool(2);
  for (const std::string family :
       {"one-choice", "greedy[2]", "left[2]", "memory[1,1]", "threshold[2]",
        "doubling-threshold[4]", "adaptive", "adaptive-net", "adaptive-total",
        "stale-adaptive[8]", "skewed-adaptive[50]", "batched[2]", "self-balancing",
        "cuckoo[2,4]"}) {
    const std::string reference =
        family == "batched[2]" ? "capacities=1:" + family : family;
    for (const std::uint64_t m : {0, 1500}) {
      SCOPED_TRACE(family + " m=" + std::to_string(m));
      ExperimentConfig cfg;
      cfg.protocol_spec = reference;
      cfg.m = m;
      cfg.n = 1000;
      cfg.replicates = 2;
      cfg.seed = 11;
      cfg.obs.level = obs::ObsLevel::kCounters;
      const RunSummary want = run_experiment(cfg, pool);
      cfg.protocol_spec = "shards[1]:" + family;
      const RunSummary got = run_experiment(cfg, pool);
      EXPECT_EQ(got.protocol_name, cfg.protocol_spec);
      EXPECT_EQ(got.obs.find("shard.message.count"), nullptr);
      ASSERT_EQ(got.records.size(), want.records.size());
      for (std::size_t r = 0; r < want.records.size(); ++r) {
        ReplicateRecord a = want.records[r];
        ReplicateRecord b = got.records[r];
        EXPECT_GT(b.wall_ns, 0u);
        a.wall_ns = b.wall_ns = 0;  // timings, not results
        expect_same_record(a, b);
      }
    }
  }
}

TEST(Runner, DescribeMentionsKeyFields) {
  const std::string desc = small_config().describe();
  EXPECT_NE(desc.find("adaptive"), std::string::npos);
  EXPECT_NE(desc.find("m=1000"), std::string::npos);
  EXPECT_NE(desc.find("n=100"), std::string::npos);
}

}  // namespace
}  // namespace bbb::sim
