#pragma once
/// \file one_choice.hpp
/// Exact one-choice bin-cardinality generation in level-count space — the
/// Devroye–Los scheme ("An asymptotically optimal algorithm for generating
/// bin cardinalities", PAPERS.md) that makes the law tier sublinear:
///
///   1. *Poissonize.* The loads of n bins after m uniform throws are n iid
///      Poisson(m/n) variables conditioned on their sum being m. The iid
///      (unconditioned) profile is sampled level by level with conditional
///      binomials — K_j ~ Binomial(n_remaining, pmf(j)/sf(j)) — which costs
///      O(#occupied levels) binomial draws and never touches a bin.
///   2. *Correct the total exactly.* The sampled profile holds S ~
///      Poisson(m) balls, |S - m| = O(sqrt(m)). Conditioned on its total,
///      a Poisson iid vector IS the multinomial occupancy vector, and the
///      multinomial is closed under one-ball moves: adding a ball to a
///      uniformly random bin maps occupancy(S) to occupancy(S+1), deleting
///      a uniformly random ball maps it to occupancy(S-1) (exchangeability
///      — the balls are iid uniform throws). So walking S to m one uniform
///      insert/delete at a time lands *exactly* on the one-choice
///      distribution at m. In level-count space an insert picks level j
///      with probability K_j/n and a delete with probability j*K_j/S —
///      both O(log #levels) via Fenwick trees.
///
/// Total cost O(#levels + sqrt(m) log #levels): n = 2^40 and beyond in
/// well under a second, versus hours per-ball. Correctness is not argued,
/// it is *tested*: tests/law/ cross-validates this sampler against the
/// exact streaming core (and against the O(n) conditional-chain reference
/// below) with pre-registered KS/chi-square thresholds.

#include <cstdint>

#include "bbb/law/profile.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::law {

/// Level counts of n iid Poisson(lambda) bin loads — step 1 alone, without
/// the total correction (exposed for the Poissonization gauge in bbb_law
/// and the transfer tests; sum of loads is Poisson(n*lambda), not fixed).
/// Levels whose expected bin count is below e^-64 are treated as empty
/// (total variation error < e^-64 — far below any statistical resolution).
/// \throws std::invalid_argument if n == 0, lambda < 0, or not finite, or
///         if the occupied levels (lambda +- sqrt(2 lambda (ln n + 64)))
///         reach past the profile's 32-bit loads — before allocating.
[[nodiscard]] OccupancyProfile sample_poisson_profile(std::uint64_t n, double lambda,
                                                      rng::Engine& gen);

/// Exact one-choice occupancy profile of m balls in n bins (steps 1 + 2).
/// \throws std::invalid_argument if n == 0, or if m/n puts the occupied
///         levels past 32-bit loads (as sample_poisson_profile).
[[nodiscard]] OccupancyProfile sample_one_choice_profile(std::uint64_t m,
                                                         std::uint64_t n,
                                                         rng::Engine& gen);

/// O(n) reference sampler: the classic conditional-binomial chain over
/// *bins* (bin i gets Binomial(m_remaining, 1/(n-i)) balls). Exactly the
/// same distribution as sample_one_choice_profile by construction from the
/// opposite direction — the law tier's in-library cross-check, and the
/// bridge to per-bin samplers (model::exact_loads). Intended for the
/// overlap scales (n <= 2^24), not astronomical n.
[[nodiscard]] OccupancyProfile sample_one_choice_profile_conditional(
    std::uint64_t m, std::uint64_t n, rng::Engine& gen);

}  // namespace bbb::law
