/// bbb_sim — the general experiment driver: run any registered protocol at
/// any (m, n), print the summary table, optionally the load histogram and a
/// per-replicate CSV dump.
///
///   $ bbb_sim --protocol=adaptive --m=1000000 --n=10000 --reps=20
///   $ bbb_sim --protocol='greedy[2]' --m=65536 --n=65536 --histogram=1
///   $ bbb_sim --protocol=threshold --csv=reps.csv ...

#include <cstdio>
#include <string>

#include "bbb/core/protocol.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/io/argparse.hpp"
#include "bbb/io/csv.hpp"
#include "bbb/io/table.hpp"
#include "bbb/obs/cli.hpp"
#include "bbb/sim/runner.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bbb_sim", "run one protocol experiment and summarize it");
  args.add_flag("protocol", std::string("adaptive"), "protocol spec (see registry)");
  args.add_flag("m", std::uint64_t{100'000}, "balls");
  args.add_flag("n", std::uint64_t{10'000}, "bins");
  args.add_flag("reps", std::uint64_t{10}, "replicates");
  args.add_flag("seed", std::uint64_t{42}, "master seed");
  args.add_flag("threads", std::uint64_t{0}, "worker threads (0 = hardware)");
  args.add_flag("shards", std::uint64_t{0},
                "prepend shards[t]: to the protocol spec (0 = off): t >= 2 "
                "runs the sharded multi-core engine on t worker threads, "
                "t = 1 the sequential streaming core under that name");
  args.add_flag("layout", std::string("wide"),
                "BinState storage: wide|compact (compact streams place_one "
                "over 8-bit lanes, ~1 byte/bin — the n=2^30 tier)");
  args.add_flag("tier", std::string("exact"),
                "exact|law (law samples the one-choice occupancy law "
                "directly — O(sqrt(m)) per replicate; see bbb_law for "
                "astronomical n and the fluid d-choice curves)");
  args.add_flag("format", std::string("ascii"), "ascii|markdown|csv");
  args.add_flag("histogram", std::uint64_t{0}, "1 = print a load histogram");
  args.add_flag("csv", std::string(""), "dump per-replicate rows to this file");
  args.add_flag("list", std::uint64_t{0},
                "1 = print every registry spec string and exit");
  bbb::obs::add_obs_flags(args);
  try {
    if (!args.parse(argc, argv)) return 0;

    if (args.get_u64("list") != 0) {
      // One spec per line, straight from the registry, so docs/PROTOCOLS.md
      // can be checked against the code: bbb_sim --list=1
      for (const auto& spec : bbb::core::protocol_specs()) std::puts(spec.c_str());
      return 0;
    }

    bbb::sim::ExperimentConfig cfg;
    cfg.protocol_spec = args.get_string("protocol");
    if (const std::uint64_t shards = args.get_u64("shards"); shards != 0) {
      cfg.protocol_spec =
          "shards[" + std::to_string(shards) + "]:" + cfg.protocol_spec;
    }
    cfg.m = args.get_u64("m");
    cfg.n = args.get_u32("n");
    cfg.replicates = args.get_u32("reps");
    cfg.seed = args.get_u64("seed");
    cfg.layout = bbb::core::parse_state_layout(args.get_string("layout"));
    cfg.tier = bbb::sim::parse_tier(args.get_string("tier"));
    cfg.obs = bbb::obs::parse_obs_flags(args);
    const auto format = bbb::io::parse_format(args.get_string("format"));

    bbb::par::ThreadPool pool(static_cast<std::size_t>(args.get_u64("threads")));
    const bbb::sim::RunSummary s = bbb::sim::run_experiment(cfg, pool);

    bbb::io::Table table({"metric", "mean", "stddev", "min", "max", "ci95"});
    table.set_title(s.protocol_name + "  " + cfg.describe());
    const auto add = [&table](const std::string& name,
                              const bbb::stats::RunningStats& st, int prec) {
      table.begin_row();
      table.add_cell(name);
      table.add_num(st.mean(), prec);
      table.add_num(st.stddev(), prec);
      table.add_num(st.min(), prec);
      table.add_num(st.max(), prec);
      table.add_num(st.ci95_halfwidth(), prec);
    };
    add("probes", s.probes, 1);
    add("probes/ball", [&] {
      bbb::stats::RunningStats per;
      for (const auto& r : s.records) {
        per.add(cfg.m > 0 ? r.probes / static_cast<double>(cfg.m) : 0.0);
      }
      return per;
    }(), 4);
    add("max load", s.max_load, 2);
    add("min load", s.min_load, 2);
    add("gap", s.gap, 2);
    add("psi", s.psi, 1);
    add("ln(phi)", s.log_phi, 3);
    if (s.reallocations.max() > 0) add("reallocations", s.reallocations, 1);
    if (s.rounds.max() > 0) add("rounds", s.rounds, 1);
    std::fputs(table.render(format).c_str(), stdout);
    if (s.failures > 0) {
      std::printf("WARNING: %u of %u replicates did not complete\n", s.failures,
                  cfg.replicates);
    }
    std::printf("paper bound: max load <= ceil(m/n)+1 = %llu (applies to "
                "threshold/adaptive families)\n",
                static_cast<unsigned long long>(bbb::core::ceil_div(cfg.m, cfg.n) + 1));
    // Metric summary on stderr so piped stdout (csv/markdown) stays clean.
    bbb::obs::print_summary(s.obs, stderr);

    if (args.get_u64("histogram") != 0) {
      std::puts("\nload histogram (replicate 0):");
      std::fputs(s.records.front().load_histogram.render_ascii(48).c_str(), stdout);
    }

    const std::string csv_path = args.get_string("csv");
    if (!csv_path.empty()) {
      bbb::io::CsvWriter csv(csv_path, {"replicate", "probes", "max_load", "min_load",
                                        "gap", "psi", "log_phi", "completed"});
      for (std::size_t r = 0; r < s.records.size(); ++r) {
        const auto& rec = s.records[r];
        csv.write_row(std::vector<double>{static_cast<double>(r), rec.probes,
                                          rec.max_load, rec.min_load, rec.gap, rec.psi,
                                          rec.log_phi,
                                          rec.completed ? 1.0 : 0.0});
      }
      std::printf("wrote %zu replicate rows to %s\n", csv.rows(), csv_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbb_sim: %s\n", e.what());
    return 1;
  }
  return 0;
}
