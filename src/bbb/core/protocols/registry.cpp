#include "bbb/core/protocols/registry.hpp"

#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "bbb/core/spec.hpp"

#include "bbb/core/protocols/batched.hpp"
#include "bbb/core/protocols/cuckoo.hpp"
#include "bbb/core/protocols/d_choice.hpp"
#include "bbb/core/protocols/left_d.hpp"
#include "bbb/core/protocols/memory_dk.hpp"
#include "bbb/core/protocols/one_choice.hpp"
#include "bbb/core/protocols/self_balancing.hpp"
#include "bbb/core/protocols/threshold.hpp"
#include "bbb/shard/engine.hpp"

namespace bbb::core {

namespace {

constexpr const char* kKind = "protocol";

std::uint32_t arg_at(const ParsedSpec& s, std::size_t i, const std::string& spec) {
  return spec_arg_u32(s, i, spec, kKind);
}

// The slack-style specs accept zero or one argument.
std::uint32_t optional_slack(const ParsedSpec& s, const std::string& spec) {
  return spec_optional_arg_u32(s, 1, spec, kKind);
}

void reject_args(const ParsedSpec& s, const std::string& spec) {
  if (!s.args.empty()) {
    throw std::invalid_argument("protocol spec '" + spec + "': takes no arguments");
  }
}

// Parameters that must be nonzero whatever n is (d, k, delta, capacity).
std::uint32_t positive(std::uint32_t value, const std::string& spec) {
  if (value == 0) {
    throw std::invalid_argument("protocol spec '" + spec +
                                "': arguments must be positive");
  }
  return value;
}

std::string bracketed(const std::string& base,
                      std::initializer_list<std::uint64_t> args) {
  std::string out = base + "[";
  for (const std::uint64_t a : args) {
    if (out.back() != '[') out += ',';
    out += std::to_string(a);
  }
  return out + "]";
}

std::string slack_name(const std::string& base, std::uint32_t slack) {
  return slack == 1 ? base : bracketed(base, {slack});
}

/// The n-independent half of a prefix-free spec: its canonical name and
/// a factory binding the family's rule to (n, m_hint). Parsing checks
/// every argument that does not depend on n, so make_protocol fails early
/// without allocating per-bin state; n-dependent limits (left[d] with
/// d > n, stale-adaptive[delta] with delta > n) throw from the factory.
struct RuleRecipe {
  std::string name;
  std::function<std::unique_ptr<PlacementRule>(std::uint32_t, std::uint64_t)> build;
  /// batched[c] only: the capacity of its round-synchronous LW batch form.
  std::uint32_t lw_capacity = 0;
};

/// The registry's one family dispatch.
RuleRecipe parse_rule(const std::string& spec) {
  const ParsedSpec s = parse_spec(spec, kKind);
  RuleRecipe r;
  if (s.name == "one-choice") {
    reject_args(s, spec);
    r.name = s.name;
    r.build = [](std::uint32_t, std::uint64_t) {
      return std::make_unique<OneChoiceRule>();
    };
    return r;
  }
  if (s.name == "greedy") {
    const std::uint32_t d = positive(arg_at(s, 0, spec), spec);
    r.name = bracketed(s.name, {d});
    r.build = [d](std::uint32_t, std::uint64_t) {
      return std::make_unique<DChoiceRule>(d);
    };
    return r;
  }
  if (s.name == "left") {
    const std::uint32_t d = positive(arg_at(s, 0, spec), spec);
    r.name = bracketed(s.name, {d});
    r.build = [d](std::uint32_t n, std::uint64_t) {
      return std::make_unique<LeftDRule>(n, d);
    };
    return r;
  }
  if (s.name == "memory") {
    const std::uint32_t d = positive(arg_at(s, 0, spec), spec);
    const std::uint32_t k = positive(arg_at(s, 1, spec), spec);
    r.name = bracketed(s.name, {d, k});
    r.build = [d, k](std::uint32_t, std::uint64_t) {
      return std::make_unique<MemoryDKRule>(d, k);
    };
    return r;
  }
  // The threshold rule's families differ only in the clock feeding the
  // bound's count c, the slack and the probe source (protocols/threshold.hpp).
  using Clock = ThresholdRule::Clock;
  if (s.name == "threshold") {
    const std::uint32_t slack = optional_slack(s, spec);
    r.name = slack_name(s.name, slack);
    // No hint: provision for a net population of n balls, so threshold[c]
    // accepts load <= ceil(n/n) + c - 1 = c.
    r.build = [slack, name = r.name](std::uint32_t n, std::uint64_t m_hint) {
      return std::make_unique<ThresholdRule>(name, n, Clock::kFixed,
                                             m_hint == 0 ? n : m_hint, slack);
    };
    return r;
  }
  if (s.name == "doubling-threshold") {
    if (s.args.size() > 1) {
      throw std::invalid_argument("protocol spec '" + spec + "': too many arguments");
    }
    const std::uint64_t guess = s.args.empty() ? 0 : s.args[0];
    r.name = bracketed(s.name, {guess});
    r.build = [guess, name = r.name](std::uint32_t n, std::uint64_t) {
      return std::make_unique<ThresholdRule>(name, n, Clock::kDoubling,
                                             guess == 0 ? n : guess);
    };
    return r;
  }
  if (s.name == "adaptive" || s.name == "adaptive-net" || s.name == "adaptive-total") {
    const std::uint32_t slack = optional_slack(s, spec);
    const Clock clock = s.name == "adaptive-net" ? Clock::kNet : Clock::kPlaced;
    r.name = slack_name(s.name, slack);
    r.build = [slack, clock, name = r.name](std::uint32_t n, std::uint64_t) {
      return std::make_unique<ThresholdRule>(name, n, clock, 1, slack);
    };
    return r;
  }
  if (s.name == "stale-adaptive") {
    const std::uint32_t delta = positive(arg_at(s, 0, spec), spec);
    r.name = bracketed(s.name, {delta});
    r.build = [delta, name = r.name](std::uint32_t n, std::uint64_t) {
      return std::make_unique<ThresholdRule>(name, n, Clock::kPlaced, delta);
    };
    return r;
  }
  if (s.name == "skewed-adaptive") {
    const std::uint32_t s100 = arg_at(s, 0, spec);
    r.name = bracketed(s.name, {s100});
    r.build = [s100, name = r.name](std::uint32_t n, std::uint64_t) {
      return std::make_unique<ThresholdRule>(name, n, Clock::kPlaced, 1, 1,
                                             static_cast<double>(s100) / 100.0);
    };
    return r;
  }
  if (s.name == "batched") {
    r.lw_capacity = positive(spec_optional_arg_u32(s, 2, spec, kKind), spec);
    r.name = bracketed(s.name, {r.lw_capacity});
    r.build = [capacity = r.lw_capacity](std::uint32_t, std::uint64_t) {
      return std::make_unique<BatchedRule>(capacity);
    };
    return r;
  }
  if (s.name == "self-balancing") {
    reject_args(s, spec);
    r.name = s.name;
    r.build = [](std::uint32_t, std::uint64_t) {
      return std::make_unique<SelfBalancingRule>();
    };
    return r;
  }
  if (s.name == "cuckoo") {
    CuckooRule::Params p;
    p.d = positive(arg_at(s, 0, spec), spec);
    p.bucket_size = positive(arg_at(s, 1, spec), spec);
    r.name = bracketed(s.name, {p.d, p.bucket_size});
    r.build = [p](std::uint32_t n, std::uint64_t) {
      return std::make_unique<CuckooRule>(n, p);
    };
    return r;
  }
  throw std::invalid_argument("unknown protocol '" + s.name + "'");
}

/// The batch form of every spec whose batch run is the place_one loop —
/// every spec but a bare batched[c] and shards[t > 1]:, capacities= and
/// shards[1]: prefixes included. run() binds the spec's streaming
/// allocator to (n, m) and drives run_rule. A prefixed `batched[c]`
/// therefore runs the capacity-bounded streaming form, not the
/// round-synchronous LW rounds.
class RuleProtocol final : public Protocol {
 public:
  RuleProtocol(std::string spec, std::string name)
      : spec_(std::move(spec)), name_(std::move(name)) {}

  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] AllocationResult run(std::uint64_t m, std::uint32_t n,
                                     rng::Engine& gen) const override {
    validate_run_args(m, n);
    const auto alloc = make_streaming_allocator(spec_, n, m);
    return run_rule(*alloc, m, gen);
  }

 private:
  std::string spec_;
  std::string name_;
};

/// Reject the prefixes no spec may carry: `weighted:` (a workload
/// modifier) and `shards[t]:` together with `capacities=` (the shard
/// engine partitions a uniform state; a single shard has no use for one).
void check_prefix(const SpecPrefix& prefix, const std::string& spec) {
  if (prefix.weighted) {
    throw std::invalid_argument("protocol spec '" + spec +
                                "': 'weighted:' is a workload modifier, not a "
                                "protocol one");
  }
  if (prefix.shards != 0 && !prefix.capacities.empty()) {
    throw std::invalid_argument("protocol spec '" + spec +
                                "': 'shards[t]:' cannot combine with "
                                "'capacities='");
  }
}

/// The name prefix a streaming allocator carries so its spec round-trips:
/// the capacity profile, or `shards[1]:` — one shard is the sequential
/// streaming core itself, so that prefix is a name and nothing else.
std::string name_prefix(const SpecPrefix& prefix) {
  if (prefix.shards == 1) return "shards[1]:";
  return prefix.capacities.empty() ? "" : capacities_prefix(prefix.capacities);
}

}  // namespace

std::unique_ptr<Protocol> make_protocol(const std::string& spec) {
  const SpecPrefix prefix = split_spec_prefix(spec, kKind);
  check_prefix(prefix, spec);
  if (prefix.shards > 1) {
    shard::ShardOptions opt;
    opt.shards = prefix.shards;
    return std::make_unique<shard::ShardedProtocol>(prefix.rest, opt);
  }
  const RuleRecipe recipe = parse_rule(prefix.rest);
  const std::string head = name_prefix(prefix);
  if (head.empty() && recipe.lw_capacity != 0) {
    BatchedProtocol::Params p;
    p.capacity = recipe.lw_capacity;
    return std::make_unique<BatchedProtocol>(p);
  }
  return std::make_unique<RuleProtocol>(spec, head + recipe.name);
}

std::unique_ptr<PlacementRule> make_rule(const std::string& spec, std::uint32_t n,
                                         std::uint64_t m_hint) {
  const SpecPrefix prefix = split_spec_prefix(spec, kKind);
  check_prefix(prefix, spec);
  if (prefix.shards != 0 || !prefix.capacities.empty()) {
    // A bare rule has no state to carry capacities and no name prefix;
    // pairing it with a uniform BinState would silently drop them.
    throw std::invalid_argument(
        "protocol spec '" + spec +
        "': a bare rule takes no 'capacities=' or 'shards[t]:' prefix — build "
        "the state + rule pair through make_streaming_allocator (or run via "
        "make_protocol)");
  }
  return parse_rule(spec).build(n, m_hint);
}

std::unique_ptr<StreamingAllocator> make_streaming_allocator(const std::string& spec,
                                                             std::uint32_t n,
                                                             std::uint64_t m_hint,
                                                             StateLayout layout) {
  const SpecPrefix prefix = split_spec_prefix(spec, kKind);
  check_prefix(prefix, spec);
  if (prefix.shards > 1) {
    throw std::invalid_argument(
        "protocol spec '" + spec +
        "': 'shards[t]:' with t > 1 builds a multi-threaded engine, not a "
        "streaming allocator — run it via make_protocol (or "
        "shard::ShardedAllocator)");
  }
  auto rule = parse_rule(prefix.rest).build(n, m_hint);
  BinState state = prefix.capacities.empty()
                       ? BinState(n, layout)
                       : BinState(expand_capacities(prefix.capacities, n), layout);
  return std::make_unique<StreamingAllocator>(std::move(state), std::move(rule),
                                              name_prefix(prefix));
}

std::vector<std::string> protocol_specs() {
  return {"one-choice",
          "greedy[d]",
          "left[d]",
          "memory[d,k]",
          "threshold",
          "threshold[slack]",
          "doubling-threshold[guess]",
          "adaptive",
          "adaptive[slack]",
          "adaptive-net",
          "adaptive-net[slack]",
          "adaptive-total",
          "adaptive-total[slack]",
          "stale-adaptive[delta]",
          "skewed-adaptive[s*100]",
          "batched[capacity]",
          "self-balancing",
          "cuckoo[d,k]",
          "capacities=c0,c1,...:spec",
          "shards[t]:spec"};
}

}  // namespace bbb::core
