#pragma once
/// \file spec.hpp
/// The shared "name[a,b,...]" spec-string grammar used by every registry
/// in the library: batch protocols (core/protocols/registry.hpp),
/// streaming allocators and workloads (dyn/). One parser, one error
/// format, so the grammars cannot drift apart.
///
/// Specs may carry *modifier prefixes* peeled off the front before the
/// name[args] core:
///   capacities=c0,c1,...:rest   heterogeneous bins — the capacity profile
///                               is cycled over the n bins of the run
///                               (protocol/allocator registries);
///   weighted:rest               atomic weighted arrivals — a whole chain
///                               lands in one bin (workload registry);
///   shards[t]:rest              the sharded multi-core engine — t >= 2
///                               worker threads in bulk-synchronous rounds,
///                               exactly distribution-equal to the
///                               sequential rule (see shard/engine.hpp);
///                               t = 1 is a name on the streaming core
///                               (protocol registry).

#include <cstdint>
#include <string>
#include <vector>

namespace bbb::core {

/// A parsed spec: a name plus optional bracketed integer arguments.
struct ParsedSpec {
  std::string name;
  std::vector<std::uint64_t> args;
};

/// Split "name[a,b]" into name and integer args; "name" alone gives no
/// args. `kind` names the registry in error messages ("protocol",
/// "allocator", "workload").
/// \throws std::invalid_argument for a missing ']' or non-integer args.
[[nodiscard]] ParsedSpec parse_spec(const std::string& spec, const std::string& kind);

/// Argument i of a parsed spec.
/// \throws std::invalid_argument if the spec has fewer than i + 1 args.
[[nodiscard]] std::uint64_t spec_arg(const ParsedSpec& parsed, std::size_t i,
                                     const std::string& spec,
                                     const std::string& kind);

/// For slack-style specs taking zero or one argument: the single argument,
/// or `fallback` when none was given.
/// \throws std::invalid_argument if more than one argument was given.
[[nodiscard]] std::uint64_t spec_optional_arg(const ParsedSpec& parsed,
                                              std::uint64_t fallback,
                                              const std::string& spec,
                                              const std::string& kind);

/// spec_arg with a uint32 range check — for parameters (d, slack, bounds)
/// that feed 32-bit protocol knobs, where silent truncation of an
/// out-of-range value would build a very different protocol than asked.
/// \throws std::invalid_argument if the value exceeds UINT32_MAX.
[[nodiscard]] std::uint32_t spec_arg_u32(const ParsedSpec& parsed, std::size_t i,
                                         const std::string& spec,
                                         const std::string& kind);

/// spec_optional_arg with the same uint32 range check.
[[nodiscard]] std::uint32_t spec_optional_arg_u32(const ParsedSpec& parsed,
                                                  std::uint32_t fallback,
                                                  const std::string& spec,
                                                  const std::string& kind);

/// Modifier prefixes split off the front of a spec (see file comment).
/// `rest` is the remaining name[args] core.
struct SpecPrefix {
  std::vector<std::uint32_t> capacities;  ///< empty = no capacities= prefix
  bool weighted = false;                  ///< weighted: prefix present
  std::uint32_t shards = 0;               ///< 0 = no shards[t]: prefix
  std::string rest;
};

/// Peel `weighted:`, `capacities=...:`, and `shards[t]:` prefixes (in any
/// order, each at most once) off `spec`.
/// \throws std::invalid_argument for malformed prefixes (empty or
///         non-integer capacity lists, zero capacities or shard counts,
///         duplicates).
[[nodiscard]] SpecPrefix split_spec_prefix(const std::string& spec,
                                           const std::string& kind);

/// Cycle a capacity profile over n bins: bin i gets profile[i % size].
/// \throws std::invalid_argument if the profile is empty or n == 0.
[[nodiscard]] std::vector<std::uint32_t> expand_capacities(
    const std::vector<std::uint32_t>& profile, std::uint32_t n);

/// Render a profile back to its canonical prefix, "capacities=1,2,4:".
[[nodiscard]] std::string capacities_prefix(const std::vector<std::uint32_t>& profile);

}  // namespace bbb::core
