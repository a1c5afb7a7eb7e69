#pragma once
/// \file allocator.hpp
/// The dyn engine's names for the streaming core. The bin-load state with
/// O(1) incremental metrics is `core::BinState`, the decision rules are the
/// one registry in core/protocols/registry.hpp, and the pairing of the two
/// is `core::StreamingAllocator`, built from a spec string by
/// `make_streaming_allocator`. Every registry spec runs under every
/// workload generator; `core::protocol_specs()` lists them.
///
/// Departures expose one design fork the batch papers never face: for
/// bound-tracking rules, is the ball index i the number of balls *ever
/// placed* (total; monotone bound that goes vacuous under sustained churn)
/// or the number *in the system* (net; the bound stays tight forever)?
/// Both variants are first-class specs (`adaptive-total`, `adaptive-net`);
/// bench_dyn_churn measures the separation.
///
/// Invariants (property-tested in tests/dyn/allocator_test.cpp):
///   * every BinState metric equals the batch recomputation from
///     core/metrics.hpp after any interleaving of add/remove, for every
///     rule in the registry;
///   * place() followed by no remove() reproduces the matching batch
///     protocol bit-for-bit from the same engine state for every rule
///     with batch_equivalent() (tests/integration/path_matrix_test.cpp).

#include "bbb/core/bin_state.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/rule.hpp"

namespace bbb::dyn {

using core::BinState;
using core::make_streaming_allocator;
using core::StateLayout;
using core::StreamingAllocator;

}  // namespace bbb::dyn
