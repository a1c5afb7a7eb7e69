/// bbb_law — the law-tier driver: exact occupancy-law sampling and fluid
/// tail curves at bin counts no simulation can touch (n = 2^40 and beyond,
/// answers in seconds).
///
///   $ bbb_law --protocol=one-choice --log2n=40 --log2m=40 --reps=20
///   $ bbb_law --protocol='greedy[2]' --log2n=50 --log2m=50 --tail=8
///   $ bbb_law --log2n=20 --log2m=20 --reps=64 --cross=64   # GOF vs exact core
///
/// --cross=R runs R replicates of the exact per-ball core at the same
/// (m, n) (independent seeds) and prints the goodness-of-fit comparison —
/// chi-square homogeneity and KS on the aggregated level counts, KS on the
/// per-replicate max loads — the same checks tests/law/ pre-registers.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bbb/io/argparse.hpp"
#include "bbb/io/csv.hpp"
#include "bbb/io/table.hpp"
#include "bbb/law/engine.hpp"
#include "bbb/model/poissonized.hpp"
#include "bbb/obs/cli.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/stats/gof.hpp"

namespace {

/// Pad the shorter of two level-count rows with zero cells so they align.
void align_rows(std::vector<std::uint64_t>& a, std::vector<std::uint64_t>& b) {
  const std::size_t top = a.size() > b.size() ? a.size() : b.size();
  a.resize(top, 0);
  b.resize(top, 0);
}

}  // namespace

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bbb_law",
                          "sample the occupancy law at astronomical n");
  args.add_flag("protocol", std::string("one-choice"),
                "one-choice | greedy[d] | mixed[d,b] (beta = b/100)");
  args.add_flag("m", std::uint64_t{0}, "balls (0 = use --log2m)");
  args.add_flag("n", std::uint64_t{0}, "bins (0 = use --log2n)");
  args.add_flag("log2m", std::uint64_t{20}, "balls = 2^log2m when --m=0");
  args.add_flag("log2n", std::uint64_t{20}, "bins = 2^log2n when --n=0");
  args.add_flag("reps", std::uint64_t{20}, "replicates (sampled specs)");
  args.add_flag("seed", std::uint64_t{42}, "master seed");
  args.add_flag("format", std::string("ascii"), "ascii|markdown|csv");
  args.add_flag("tail", std::uint64_t{0},
                "print the first k levels: fluid s_k vs sampled fraction");
  args.add_flag("cross", std::uint64_t{0},
                "cross-validate against this many exact-core replicates "
                "(one-choice only; n must be simulable)");
  args.add_flag("csv", std::string(""), "dump per-replicate rows to this file");
  bbb::obs::add_obs_flags(args);
  try {
    if (!args.parse(argc, argv)) return 0;

    bbb::law::LawConfig cfg;
    cfg.protocol_spec = args.get_string("protocol");
    cfg.m = args.get_u64("m") != 0 ? args.get_u64("m")
                                   : std::uint64_t{1} << args.get_u64("log2m");
    cfg.n = args.get_u64("n") != 0 ? args.get_u64("n")
                                   : std::uint64_t{1} << args.get_u64("log2n");
    cfg.replicates = args.get_u32("reps");
    cfg.seed = args.get_u64("seed");
    cfg.obs = bbb::obs::parse_obs_flags(args);
    const auto format = bbb::io::parse_format(args.get_string("format"));

    const bbb::law::LawSummary s = bbb::law::run_law_experiment(cfg);

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
    add("max load", s.max_load, 2);
    add("min load", s.min_load, 2);
    add("gap", s.gap, 2);
    if (s.sampled) {
      add("psi", s.psi, 1);
      add("ln(phi)", s.log_phi, 3);
    }
    std::fputs(table.render(format).c_str(), stdout);
    std::printf("fluid estimate: max load %u, min load %u (t = m/n = %.6g)\n",
                s.fluid_max_load, s.fluid_min_load,
                static_cast<double>(cfg.m) / static_cast<double>(cfg.n));
    // Metric summary on stderr so piped stdout (csv/markdown) stays clean.
    bbb::obs::print_summary(s.obs, stderr);

    const std::uint64_t tail = args.get_u64("tail");
    if (tail > 0) {
      bbb::io::Table curve(s.sampled ? std::vector<std::string>{"k", "fluid s_k",
                                                                "sampled s_k"}
                                     : std::vector<std::string>{"k", "fluid s_k"});
      curve.set_title("tail curve s_k = fraction of bins with load >= k");
      std::uint64_t bins_seen = 0;
      std::vector<double> sampled_tail;  // sampled fraction >= k, k from high to low
      if (s.sampled) {
        sampled_tail.resize(s.level_counts.size() + 1, 0.0);
        for (std::size_t k = s.level_counts.size(); k-- > 0;) {
          bins_seen += s.level_counts[k];
          sampled_tail[k] = static_cast<double>(bins_seen) /
                            (static_cast<double>(cfg.n) * s.max_load.count());
        }
      }
      for (std::uint64_t k = 1; k <= tail; ++k) {
        curve.begin_row();
        curve.add_num(static_cast<double>(k), 0);
        curve.add_num(k <= s.fluid_tails.size() ? s.fluid_tails[k - 1] : 0.0, 9);
        if (s.sampled) {
          curve.add_num(k < sampled_tail.size() ? sampled_tail[k] : 0.0, 9);
        }
      }
      std::fputs(curve.render(format).c_str(), stdout);
    }

    const std::uint64_t cross = args.get_u64("cross");
    if (cross > 0) {
      if (!s.sampled) {
        throw std::invalid_argument(
            "--cross compares sampled laws; fluid specs have nothing to sample");
      }
      if (cfg.n > (std::uint64_t{1} << 28)) {
        throw std::invalid_argument(
            "--cross simulates every ball; keep n <= 2^28 (the law side alone "
            "scales far beyond)");
      }
      // Exact side: independent master seed (seed + 1) so the comparison is
      // between independent draws, not correlated streams.
      std::vector<std::uint64_t> exact_levels;
      std::vector<double> exact_max;
      for (std::uint64_t r = 0; r < cross; ++r) {
        bbb::rng::Engine gen =
            bbb::rng::SeedSequence(cfg.seed + 1).engine(static_cast<std::uint32_t>(r));
        const auto loads = bbb::model::exact_loads(
            cfg.m, static_cast<std::uint32_t>(cfg.n), gen);
        const auto levels = bbb::model::level_counts_of(loads);
        if (exact_levels.size() < levels.size()) exact_levels.resize(levels.size(), 0);
        for (std::size_t j = 0; j < levels.size(); ++j) exact_levels[j] += levels[j];
        exact_max.push_back(static_cast<double>(levels.size()) - 1.0);
      }
      std::vector<std::uint64_t> law_levels = s.level_counts;
      align_rows(law_levels, exact_levels);

      const auto chi2 =
          bbb::stats::chi_square_homogeneity(law_levels, exact_levels);
      const auto ks = bbb::stats::ks_counts(law_levels, exact_levels);
      std::vector<double> law_max;
      for (const auto& rec : s.records) law_max.push_back(rec.max_load);
      const double ks_max = law_max.empty()
                                ? 0.0
                                : bbb::stats::ks_statistic(law_max, exact_max);

      std::printf("\ncross-validation vs exact core (%llu replicates, seed %llu):\n",
                  static_cast<unsigned long long>(cross),
                  static_cast<unsigned long long>(cfg.seed + 1));
      std::printf("  level counts  chi2 = %.4f (df %.0f, %zu pooled)  p = %.4f\n",
                  chi2.statistic, chi2.df, chi2.pooled_cells, chi2.p_value);
      std::printf("  level counts  KS D = %.6f  p = %.4f\n", ks.statistic,
                  ks.p_value);
      std::printf("  max loads     KS D = %.6f (%zu vs %zu replicates)\n", ks_max,
                  law_max.size(), exact_max.size());
    }

    const std::string csv_path = args.get_string("csv");
    if (!csv_path.empty()) {
      bbb::io::CsvWriter csv(csv_path, {"replicate", "max_load", "min_load", "gap",
                                        "psi", "log_phi"});
      for (std::size_t r = 0; r < s.records.size(); ++r) {
        const auto& rec = s.records[r];
        csv.write_row(std::vector<double>{static_cast<double>(r), rec.max_load,
                                          rec.min_load, rec.gap, rec.psi,
                                          rec.log_phi});
      }
      std::printf("wrote %zu replicate rows to %s\n", csv.rows(), csv_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbb_law: %s\n", e.what());
    return 1;
  }
  return 0;
}
