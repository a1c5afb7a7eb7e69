#include "bbb/law/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "bbb/law/one_choice.hpp"
#include "bbb/law/profile.hpp"
#include "bbb/obs/trace_sink.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/theory/tails.hpp"

namespace bbb::law {

std::string LawConfig::describe() const {
  std::ostringstream os;
  os << protocol_spec << " m=" << m << " n=" << n << " reps=" << replicates
     << " seed=" << seed << " tier=law" << obs.describe();
  return os.str();
}

namespace {

/// Parsed law-tier spec: which process, and its fluid parameters.
struct LawSpec {
  bool sampled = false;  ///< one-choice Monte-Carlo vs deterministic fluid
  std::uint32_t d = 1;
  double beta = 0.0;
  std::string canonical;
};

/// Parse "name" or "name[a]" or "name[a,b]" with nonnegative integer args.
/// Grammar matches core/protocols/registry.hpp so specs read the same
/// across tiers.
LawSpec parse_law_spec(const std::string& spec) {
  std::string name = spec;
  std::vector<std::uint64_t> args;
  const std::size_t open = spec.find('[');
  if (open != std::string::npos) {
    if (spec.back() != ']') {
      throw std::invalid_argument("law spec: missing ']' in '" + spec + "'");
    }
    name = spec.substr(0, open);
    std::string body = spec.substr(open + 1, spec.size() - open - 2);
    std::size_t pos = 0;
    while (pos <= body.size()) {
      const std::size_t comma = std::min(body.find(',', pos), body.size());
      const std::string tok = body.substr(pos, comma - pos);
      if (tok.empty() || tok.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument("law spec: bad argument '" + tok + "' in '" +
                                    spec + "'");
      }
      args.push_back(std::stoull(tok));
      pos = comma + 1;
    }
  }

  LawSpec out;
  if (name == "one-choice") {
    if (!args.empty()) {
      throw std::invalid_argument("law spec: one-choice takes no arguments");
    }
    out.sampled = true;
    out.d = 1;
    out.beta = 0.0;
    out.canonical = "one-choice";
    return out;
  }
  if (name == "greedy") {
    if (args.size() != 1 || args[0] == 0) {
      throw std::invalid_argument("law spec: greedy needs one argument d >= 1");
    }
    out.d = static_cast<std::uint32_t>(args[0]);
    out.beta = 1.0;
    out.sampled = out.d == 1;  // greedy[1] is one-choice: sample it exactly
    out.canonical = out.sampled ? "one-choice" : "greedy[" + std::to_string(out.d) + "]";
    return out;
  }
  if (name == "mixed") {
    if (args.size() != 2 || args[0] == 0 || args[1] > 100) {
      throw std::invalid_argument(
          "law spec: mixed needs arguments [d,b] with d >= 1, 0 <= b <= 100");
    }
    out.d = static_cast<std::uint32_t>(args[0]);
    out.beta = static_cast<double>(args[1]) / 100.0;
    // A mixture that never takes the d-choice branch (b == 0) or cannot
    // tell the branches apart (d == 1) is one-choice: sample it exactly.
    out.sampled = out.d == 1 || args[1] == 0;
    out.canonical = out.sampled ? "one-choice"
                                : "mixed[" + std::to_string(out.d) + "," +
                                      std::to_string(args[1]) + "]";
    return out;
  }
  throw std::invalid_argument("law spec: unknown protocol '" + spec +
                              "' (law tier knows one-choice, greedy[d], mixed[d,b])");
}

/// Most levels a fluid curve integrates.
constexpr double kFluidMaxLevels = 4096.0;

/// Levels worth integrating: average load plus a generous fluctuation
/// band. The fluid curves decay at least geometrically past t, so the
/// band never truncates a level whose expected count could reach 1/2.
/// A band past kFluidMaxLevels is refused before any integration: a
/// capped curve would report the cap, not the load.
std::uint32_t fluid_k_max(double t, std::uint64_t n) {
  const double spread =
      8.0 * std::sqrt((t + 1.0) * std::log(static_cast<double>(n) + 2.0)) + 64.0;
  const double k = std::ceil(t + spread);
  if (k > kFluidMaxLevels) {
    std::ostringstream msg;
    msg << "run_law_experiment: m/n = " << t << " needs " << k
        << " fluid levels, past the cap of " << kFluidMaxLevels
        << "; for sampled one-choice at this load use bbb_sim --tier=law";
    throw std::invalid_argument(msg.str());
  }
  return static_cast<std::uint32_t>(k);
}

/// Largest k with expected #bins below level k under 1/2 — i.e. the fluid
/// prediction of the minimum load. tails[k-1] = s_k; bins with load < k
/// number n (1 - s_k).
std::uint32_t fluid_min_load_estimate(const std::vector<double>& tails,
                                      std::uint64_t n) {
  std::uint32_t min_load = 0;
  for (std::size_t k = 0; k < tails.size(); ++k) {
    if (static_cast<double>(n) * (1.0 - tails[k]) < 0.5) {
      min_load = static_cast<std::uint32_t>(k) + 1;  // all n bins reach level k+1
    } else {
      break;
    }
  }
  return min_load;
}

void fold_profile(const OccupancyProfile& profile, LawSummary& summary) {
  LawReplicate rec;
  rec.max_load = profile.max_load();
  rec.min_load = profile.min_load();
  rec.gap = profile.gap();
  rec.psi = profile.psi();
  rec.log_phi = profile.log_phi();

  summary.max_load.add(rec.max_load);
  summary.min_load.add(rec.min_load);
  summary.gap.add(rec.gap);
  summary.psi.add(rec.psi);
  summary.log_phi.add(rec.log_phi);

  const std::size_t top = profile.base() + profile.counts().size();
  if (summary.level_counts.size() < top) summary.level_counts.resize(top, 0);
  for (std::size_t i = 0; i < profile.counts().size(); ++i) {
    summary.level_counts[profile.base() + i] += profile.counts()[i];
  }
  if (summary.config.keep_records) summary.records.push_back(rec);
}

}  // namespace

LawSummary run_law_experiment(const LawConfig& config) {
  if (config.n == 0) throw std::invalid_argument("run_law_experiment: n must be > 0");
  const LawSpec spec = parse_law_spec(config.protocol_spec);

  LawSummary summary;
  summary.config = config;
  summary.protocol_name = spec.canonical;
  summary.sampled = spec.sampled;

  const double t = static_cast<double>(config.m) / static_cast<double>(config.n);
  summary.fluid_tails =
      theory::fluid_tail_curve(t, spec.d, spec.beta, fluid_k_max(t, config.n));
  summary.fluid_max_load =
      theory::fluid_max_load_estimate(summary.fluid_tails, config.n);
  summary.fluid_min_load = fluid_min_load_estimate(summary.fluid_tails, config.n);

  if (!spec.sampled) {
    // Deterministic fluid spec: the "replicate" is the single ODE estimate.
    summary.max_load.add(summary.fluid_max_load);
    summary.min_load.add(summary.fluid_min_load);
    summary.gap.add(static_cast<double>(summary.fluid_max_load) -
                    static_cast<double>(summary.fluid_min_load));
    return summary;
  }

  if (config.replicates == 0) {
    throw std::invalid_argument("run_law_experiment: replicates must be positive");
  }
  const bool obs_on = config.obs.counters_on();
  if (obs_on && config.obs.sink) {
    obs::JsonLine line("run_start", "law");
    line.begin_object("config")
        .field("describe", config.describe())
        .field("protocol", summary.protocol_name)
        .field("m", config.m)
        .field("n", config.n)
        .field("replicates", static_cast<std::uint64_t>(config.replicates))
        .field("seed", config.seed)
        .end_object();
    config.obs.sink->write(std::move(line));
  }
  obs::MetricsRegistry registry;
  for (std::uint32_t r = 0; r < config.replicates; ++r) {
    const auto start = std::chrono::steady_clock::now();
    rng::Engine gen = rng::SeedSequence(config.seed).engine(r);
    const OccupancyProfile profile =
        sample_one_choice_profile(config.m, config.n, gen);
    fold_profile(profile, summary);
    if (obs_on) {
      // One sampled profile per replicate — the wall time of the
      // Poissonize-and-correct sampler is the law tier's whole cost.
      const auto wall_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      registry.histogram("law.replicate.wall_ns").record(wall_ns);
      if (config.obs.sink) {
        obs::JsonLine line("replicate", "law");
        line.field("replicate", static_cast<std::uint64_t>(r))
            .begin_object("metrics")
            .field("max_load", static_cast<std::uint64_t>(profile.max_load()))
            .field("gap", static_cast<std::uint64_t>(profile.gap()))
            .field("wall_ns", wall_ns)
            .end_object();
        config.obs.sink->write(std::move(line));
      }
    }
  }
  if (obs_on) {
    summary.obs = registry.snapshot();
    if (config.obs.sink) {
      obs::JsonLine line("summary", "law");
      obs::append_metrics(line, summary.obs);
      config.obs.sink->write(std::move(line));
    }
  }
  return summary;
}

}  // namespace bbb::law
