#include "bbb/law/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

#include "bbb/sim/runner.hpp"

namespace bbb::law {
namespace {

// ---------------------------------------------------------------- spec parsing

TEST(LawSpecParsing, RecognizedSpecs) {
  LawConfig cfg;
  cfg.m = 1 << 10;
  cfg.n = 1 << 10;
  cfg.replicates = 2;

  cfg.protocol_spec = "one-choice";
  EXPECT_EQ(run_law_experiment(cfg).protocol_name, "one-choice");
  EXPECT_TRUE(run_law_experiment(cfg).sampled);

  // Degenerate d-choice mixtures ARE one-choice; the engine samples them
  // exactly instead of settling for the fluid curve.
  cfg.protocol_spec = "greedy[1]";
  EXPECT_EQ(run_law_experiment(cfg).protocol_name, "one-choice");
  cfg.protocol_spec = "mixed[2,0]";
  EXPECT_EQ(run_law_experiment(cfg).protocol_name, "one-choice");
  cfg.protocol_spec = "mixed[1,100]";
  EXPECT_EQ(run_law_experiment(cfg).protocol_name, "one-choice");

  cfg.protocol_spec = "greedy[2]";
  const LawSummary greedy = run_law_experiment(cfg);
  EXPECT_EQ(greedy.protocol_name, "greedy[2]");
  EXPECT_FALSE(greedy.sampled);

  cfg.protocol_spec = "mixed[2,50]";
  const LawSummary mixed = run_law_experiment(cfg);
  EXPECT_EQ(mixed.protocol_name, "mixed[2,50]");
  EXPECT_FALSE(mixed.sampled);
}

TEST(LawSpecParsing, RejectsMalformedSpecs) {
  LawConfig cfg;
  cfg.m = cfg.n = 16;
  for (const char* bad :
       {"greedy", "greedy[0]", "greedy[2", "greedy[x]", "one-choice[2]",
        "mixed[2]", "mixed[0,50]", "mixed[2,101]", "adaptive", "left[2]", ""}) {
    cfg.protocol_spec = bad;
    EXPECT_THROW(run_law_experiment(cfg), std::invalid_argument) << bad;
  }
}

TEST(LawConfigValidation, RejectsBadSizes) {
  LawConfig cfg;
  cfg.m = 16;
  cfg.n = 0;
  EXPECT_THROW(run_law_experiment(cfg), std::invalid_argument);
  cfg.n = 16;
  cfg.replicates = 0;
  EXPECT_THROW(run_law_experiment(cfg), std::invalid_argument);
  // Fluid specs have no replicates to run; 0 is fine there.
  cfg.protocol_spec = "greedy[2]";
  EXPECT_NO_THROW(run_law_experiment(cfg));
}

TEST(LawConfigValidation, RejectsFluidBandPastTheLevelCap) {
  // m/n = 5000 needs more than the 4096 fluid levels: refused before the
  // 512 * m/n RK4 steps are integrated, pointing one-choice at bbb_sim.
  LawConfig cfg;
  cfg.m = 50'000;
  cfg.n = 10;
  cfg.replicates = 1;
  for (const char* spec : {"one-choice", "greedy[2]"}) {
    SCOPED_TRACE(spec);
    cfg.protocol_spec = spec;
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)run_law_experiment(cfg);
      ADD_FAILURE() << "m/n = 5000 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bbb_sim --tier=law"), std::string::npos)
          << e.what();
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  }
}

// ------------------------------------------------------------- sampled summary

TEST(LawEngine, SampledSummaryShape) {
  LawConfig cfg;
  cfg.m = 1 << 12;
  cfg.n = 1 << 12;
  cfg.replicates = 5;
  cfg.seed = 42;
  const LawSummary s = run_law_experiment(cfg);

  EXPECT_EQ(s.max_load.count(), 5u);
  EXPECT_EQ(s.records.size(), 5u);
  // Replicate 0 uses SeedSequence(42).engine(0) — exactly the golden-pin
  // stream of tests/law/one_choice_test.cpp (max load 7 at m = n = 4096).
  EXPECT_DOUBLE_EQ(s.records[0].max_load, 7.0);
  // Aggregated level counts cover n bins per replicate.
  EXPECT_EQ(std::accumulate(s.level_counts.begin(), s.level_counts.end(),
                            std::uint64_t{0}),
            5ull << 12);
  // Balls conservation via the level identity sum j*K_j = m per replicate.
  std::uint64_t balls = 0;
  for (std::size_t j = 0; j < s.level_counts.size(); ++j) balls += j * s.level_counts[j];
  EXPECT_EQ(balls, 5ull << 12);

  LawConfig lean = cfg;
  lean.keep_records = false;
  const LawSummary sl = run_law_experiment(lean);
  EXPECT_TRUE(sl.records.empty());
  EXPECT_EQ(sl.max_load.count(), 5u);
  EXPECT_DOUBLE_EQ(sl.max_load.mean(), s.max_load.mean());
}

// ----------------------------------------------------------------- fluid side

TEST(LawEngine, OneChoiceFluidCurveIsPoisson) {
  LawConfig cfg;
  cfg.m = 1 << 12;
  cfg.n = 1 << 12;
  cfg.replicates = 2;
  const LawSummary s = run_law_experiment(cfg);
  // t = 1: s_1 = P(Poi(1) >= 1) = 1 - 1/e.
  ASSERT_GE(s.fluid_tails.size(), 2u);
  EXPECT_NEAR(s.fluid_tails[0], 1.0 - std::exp(-1.0), 1e-8);
  EXPECT_NEAR(s.fluid_tails[1], 1.0 - 2.0 * std::exp(-1.0), 1e-8);
}

TEST(LawEngine, GreedyTwoAtAstronomicalN) {
  // The double-log pin: greedy[2]'s fluid max load at m = n = 2^40 is 5
  // (n s_5 < 1/2 but n s_4 >> 1; see docs/EXPERIMENTS.md law section).
  LawConfig cfg;
  cfg.protocol_spec = "greedy[2]";
  cfg.m = 1ULL << 40;
  cfg.n = 1ULL << 40;
  const LawSummary s = run_law_experiment(cfg);
  EXPECT_FALSE(s.sampled);
  EXPECT_EQ(s.fluid_max_load, 5u);
  EXPECT_DOUBLE_EQ(s.max_load.mean(), 5.0);
  EXPECT_EQ(s.max_load.count(), 1u);
}

TEST(LawEngine, FluidMinLoadRisesWithDensity) {
  // t = 16 at modest n: the left Poisson tail below some level empties out,
  // so the fluid minimum must sit above 0 (and below the average, 16).
  LawConfig cfg;
  cfg.m = 16ull << 10;
  cfg.n = 1 << 10;
  cfg.replicates = 2;
  const LawSummary s = run_law_experiment(cfg);
  EXPECT_GT(s.fluid_min_load, 0u);
  EXPECT_LT(s.fluid_min_load, 16u);
  EXPECT_GT(s.fluid_max_load, 16u);
}

// --------------------------------------------------------- sim tier dispatch

TEST(SimTier, ParseAndDescribeRoundTrip) {
  EXPECT_EQ(sim::parse_tier("exact"), sim::Tier::kExact);
  EXPECT_EQ(sim::parse_tier("law"), sim::Tier::kLaw);
  EXPECT_THROW((void)sim::parse_tier("LAW"), std::invalid_argument);
  EXPECT_EQ(sim::to_string(sim::Tier::kLaw), "law");

  sim::ExperimentConfig cfg;
  cfg.tier = sim::Tier::kLaw;
  EXPECT_NE(cfg.describe().find("tier=law"), std::string::npos);
  cfg.tier = sim::Tier::kExact;
  EXPECT_EQ(cfg.describe().find("tier="), std::string::npos);
}

TEST(SimTier, LawReplicateMatchesGoldenPin) {
  sim::ExperimentConfig cfg;
  cfg.protocol_spec = "one-choice";
  cfg.m = 4096;
  cfg.n = 4096;
  cfg.seed = 42;
  cfg.tier = sim::Tier::kLaw;
  const sim::ReplicateRecord rec = sim::run_replicate(cfg, 0);
  EXPECT_DOUBLE_EQ(rec.max_load, 7.0);  // the seed-42 golden pin
  EXPECT_DOUBLE_EQ(rec.min_load, 0.0);
  EXPECT_DOUBLE_EQ(rec.probes, 4096.0);  // one-choice probes once per ball
  EXPECT_DOUBLE_EQ(rec.reallocations, 0.0);
  EXPECT_TRUE(rec.completed);
}

TEST(SimTier, LawTierRunsThroughRunExperiment) {
  sim::ExperimentConfig cfg;
  cfg.protocol_spec = "one-choice";
  cfg.m = 1 << 12;
  cfg.n = 1 << 12;
  cfg.replicates = 4;
  cfg.tier = sim::Tier::kLaw;
  const sim::RunSummary s = sim::run_experiment(cfg);
  EXPECT_EQ(s.protocol_name, "one-choice");
  EXPECT_EQ(s.records.size(), 4u);
  EXPECT_GT(s.max_load.mean(), 4.0);
  EXPECT_LT(s.max_load.mean(), 12.0);
  EXPECT_EQ(s.failures, 0u);
}

TEST(SimTier, LawTierRejectsNonOneChoiceSpecs) {
  sim::ExperimentConfig cfg;
  cfg.protocol_spec = "greedy[2]";
  cfg.m = cfg.n = 256;
  cfg.tier = sim::Tier::kLaw;
  EXPECT_THROW((void)sim::run_experiment(cfg), std::invalid_argument);
  EXPECT_THROW((void)sim::run_replicate(cfg, 0), std::invalid_argument);
}

}  // namespace
}  // namespace bbb::law
