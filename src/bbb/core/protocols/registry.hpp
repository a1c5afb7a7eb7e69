#pragma once
/// \file registry.hpp
/// String-spec factory for the one rule vocabulary spanning batch and
/// dynamic execution. A spec is a name plus optional bracketed integer
/// arguments; one family dispatch parses it for every factory:
///
///   * `make_rule(spec, n, m_hint)` builds the streaming decision rule —
///     what the dyn engine, the tracer, and every embedding application
///     consume;
///   * `make_protocol(spec)` builds the batch `Protocol`. That is the
///     sharded engine for `shards[t]:` with t >= 2, the round-synchronous
///     LW rounds for a bare `batched[c]`, and for every other spec one generic
///     protocol whose run() is `run_rule` over the spec's streaming
///     allocator (the place_one loop plus `finalize`). It checks every
///     n-independent argument up front and allocates no per-bin state.
///
/// `Protocol::name()` / `PlacementRule::name()` of every built instance
/// parses back to an equivalent object (round-trip property, tested).
///
/// Recognized specs:
///   one-choice
///   greedy[d]            e.g. greedy[2]
///   left[d]              e.g. left[4]
///   memory[d,k]          e.g. memory[1,1]
///   batched[capacity]
///   self-balancing
///   cuckoo[d,k]          e.g. cuckoo[2,4]
/// and the threshold rule (one ThresholdRule, protocols/threshold.hpp),
/// whose specs differ only in the ball clock feeding its bound:
///   threshold            = threshold[1]; fixed m (the hint, else n)
///   threshold[slack]
///   doubling-threshold[guess]   guess-and-double unknown-m variant (0 = n)
///   adaptive             = adaptive[1]; placements so far
///   adaptive[slack]
///   adaptive-net         = adaptive-net[1]; balls present (net count)
///   adaptive-net[slack]
///   adaptive-total       = adaptive-total[1]; explicit placement count
///   adaptive-total[slack]
///   stale-adaptive[delta]    placement count republished every delta
///   skewed-adaptive[s*100]   placements so far, Zipf(s) probes, s scaled by 100
///
/// Any spec may carry a heterogeneous-capacity prefix
///   capacities=c0,c1,...:spec    e.g. capacities=1,2,4,8:greedy[2]
/// the profile is cycled over the run's n bins (bin i gets c_{i mod k}).
/// The probe-based rules one-choice / greedy[d] / left[d] then probe
/// proportionally to capacity and compare normalized loads l_i/c_i; every
/// other rule runs its classic uniform-probe logic over the capacitated
/// state (the uniform-probe baseline on unequal servers).
///
/// A spec may instead carry the sharded-engine prefix
///   shards[t]:spec               e.g. shards[4]:greedy[2]
/// For t >= 2 it runs one-choice / greedy[d] / left[d] on t worker threads
/// in the bulk-synchronous rounds of shard/engine.hpp — exactly
/// distribution-equal to the sequential rule. `shards[1]:` is a name
/// prefix on the streaming core, like `capacities=`: every family, and
/// bit-identical to the bare spec (make_streaming_allocator accepts it;
/// its batch form is the place loop, so `shards[1]:batched[c]` runs the
/// streaming capacity-bounded form). Cannot combine with `capacities=`.
///
/// The three adaptive spellings are identical on arrivals-only streams;
/// net and total only diverge once departures arrive.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"

namespace bbb::core {

/// Build a batch protocol from a spec string.
/// \throws std::invalid_argument for unknown names or malformed/missing args.
[[nodiscard]] std::unique_ptr<Protocol> make_protocol(const std::string& spec);

/// Build a streaming rule from a spec string for a system of n bins.
/// `m_hint` provisions rules that need the total ball count up-front
/// (threshold's fixed bound); 0 means unknown, which falls back to m = n —
/// i.e. `threshold[c]` with no hint accepts load <= c. All other rules
/// ignore the hint. Rules read capacities off the BinState they are driven
/// against and carry no name prefix, so `capacities=` and `shards[t]:`
/// are rejected here: build the matching state + rule pair through
/// make_streaming_allocator (or make_protocol).
/// \throws std::invalid_argument for unknown names, malformed args, or
///         parameters invalid at this n (left[d] with d > n, ...).
[[nodiscard]] std::unique_ptr<PlacementRule> make_rule(const std::string& spec,
                                                       std::uint32_t n,
                                                       std::uint64_t m_hint = 0);

/// Build a rule *and* its matching BinState from a spec that may carry a
/// `capacities=` prefix (the profile is cycled over the n bins) or a
/// `shards[1]:` prefix. The allocator's name() round-trips the full spec
/// (prefix included).
/// `layout` selects the BinState storage (StateLayout::kCompact for the
/// giant-scale tier; metrics and placements are bit-identical either way,
/// but compact states reject sample_nonempty — see bin_state.hpp).
/// \throws std::invalid_argument as make_rule, for a malformed prefix, or
///         for `shards[t]:` with t >= 2 (a multi-threaded engine).
[[nodiscard]] std::unique_ptr<StreamingAllocator> make_streaming_allocator(
    const std::string& spec, std::uint32_t n, std::uint64_t m_hint = 0,
    StateLayout layout = StateLayout::kWide);

/// All recognized spec shapes, for --help / --list output.
[[nodiscard]] std::vector<std::string> protocol_specs();

}  // namespace bbb::core
