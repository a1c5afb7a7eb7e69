#include "bbb/core/rule.hpp"

#include <stdexcept>
#include <utility>

namespace bbb::core {

PlacementRule::~PlacementRule() = default;

void PlacementRule::on_remove(BinState& /*state*/, std::uint32_t /*bin*/) {}

void PlacementRule::finalize(BinState& /*state*/, rng::Engine& /*gen*/) {}

void PlacementRule::set_engine_exclusive(bool /*exclusive*/) noexcept {}

const BatchPlacer* PlacementRule::batch_kernel() const noexcept { return nullptr; }

void PlacementRule::do_place_batch(BinState& state, std::uint64_t count,
                                   rng::Engine& gen, std::uint32_t* bins_out) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t bin = place_one(state, gen);
    if (bins_out != nullptr) bins_out[i] = bin;
  }
}

void PlacementRule::throw_bad_weight(std::uint32_t weight) const {
  if (weight == 0) {
    throw std::invalid_argument("place_one: weight must be positive");
  }
  throw std::logic_error("rule '" + name() +
                         "' cannot place weighted balls atomically; the "
                         "driver must explode the chain into unit placements");
}

namespace {

void validate_rule_n(const PlacementRule& rule, std::uint32_t n) {
  const std::uint32_t bound = rule.bound_n();
  if (bound != 0 && bound != n) {
    throw std::invalid_argument("rule '" + rule.name() + "' was built for n = " +
                                std::to_string(bound) + ", not n = " +
                                std::to_string(n));
  }
}

}  // namespace

StreamingAllocator::StreamingAllocator(std::uint32_t n,
                                       std::unique_ptr<PlacementRule> rule)
    : StreamingAllocator(BinState(n), std::move(rule)) {}

StreamingAllocator::StreamingAllocator(BinState state,
                                       std::unique_ptr<PlacementRule> rule,
                                       std::string name_prefix)
    : state_(std::move(state)),
      rule_(std::move(rule)),
      name_prefix_(std::move(name_prefix)) {
  if (!rule_) {
    throw std::invalid_argument("StreamingAllocator: rule must not be null");
  }
  validate_rule_n(*rule_, state_.n());
}

std::uint32_t StreamingAllocator::place_weighted(std::uint32_t weight,
                                                 rng::Engine& gen) {
  if (weight == 0) {
    throw std::invalid_argument("place_weighted: weight must be positive");
  }
  if (weight == 1 || rule_->supports_weights()) {
    return rule_->place_one(state_, weight, gen);
  }
  // Centralized unit-explode fallback for rules without atomic weighted
  // placement: w independent unit decisions.
  ++explode_fallbacks_;
  std::uint32_t bin = 0;
  for (std::uint32_t w = 0; w < weight; ++w) bin = rule_->place_one(state_, gen);
  return bin;
}

AllocationResult run_rule(StreamingAllocator& alloc, std::uint64_t m,
                          rng::Engine& gen) {
  // The batch loop is the engine's only consumer, so probing rules may
  // read the raw word stream ahead and prefetch candidate bins; consumed
  // words — and every allocation — are unchanged (see core/probe.hpp).
  // Revoked on every exit (including a throwing place_one): a caller who
  // reuses the allocator with a different engine must not consume this
  // engine's buffered residue.
  struct ExclusiveGuard {
    StreamingAllocator& alloc;
    ~ExclusiveGuard() { alloc.set_engine_exclusive(false); }
  } guard{alloc};
  alloc.set_engine_exclusive(true);
  // One batched call: identical to the place_one loop for every rule (the
  // base do_place_batch IS that loop), and the entry point of the vector
  // batch kernel for the rules/states that have one.
  alloc.place_batch(m, gen);
  alloc.finalize(gen);
  const BinState& state = alloc.state();
  const PlacementRule& rule = alloc.rule();
  AllocationResult res;
  res.loads = state.copy_loads();
  res.balls = state.balls();
  res.probes = rule.probes();
  res.reallocations = rule.reallocations();
  res.rounds = rule.rounds();
  res.completed = rule.completed();
  return res;
}

}  // namespace bbb::core
