/// quickstart — the smallest end-to-end use of the library.
///
/// Allocates one million balls into ten thousand bins with the paper's
/// adaptive protocol, prints the guarantees next to what actually happened,
/// and contrasts with classic one-choice hashing.
///
///   $ ./quickstart

#include <cstdio>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/xoshiro256.hpp"

int main() {
  constexpr std::uint32_t n = 10'000;
  constexpr std::uint64_t m = 1'000'000;

  // --- adaptive: the paper's protocol -----------------------------------
  bbb::rng::Engine gen(2013);  // SPAA'13
  const auto adaptive = bbb::core::make_protocol("adaptive");
  const bbb::core::AllocationResult result = adaptive->run(m, n, gen);
  const bbb::core::LoadMetrics metrics =
      bbb::core::compute_metrics(result.loads, result.balls);

  std::printf("adaptive: %llu balls -> %u bins\n",
              static_cast<unsigned long long>(m), n);
  std::printf("  max load        : %u  (guarantee: ceil(m/n)+1 = %llu)\n", metrics.max,
              static_cast<unsigned long long>(bbb::core::ceil_div(m, n) + 1));
  std::printf("  min load        : %u  (gap %u, Corollary 3.5: O(log n))\n",
              metrics.min, metrics.gap);
  std::printf("  allocation time : %llu probes = %.3f per ball (Theorem 3.1: O(m))\n",
              static_cast<unsigned long long>(result.probes),
              static_cast<double>(result.probes) / static_cast<double>(m));
  std::printf("  quadratic pot.  : %.0f (Corollary 3.5: O(n))\n\n", metrics.psi);

  // --- one-choice: what a plain hash would do ---------------------------
  bbb::rng::Engine gen2(2013);
  const auto one_choice = bbb::core::make_protocol("one-choice");
  const auto baseline = one_choice->run(m, n, gen2);
  const auto base_metrics = bbb::core::compute_metrics(baseline.loads, m);
  std::printf("one-choice baseline:\n");
  std::printf("  max load        : %u (overload %u above average)\n", base_metrics.max,
              base_metrics.max - static_cast<std::uint32_t>(m / n));
  std::printf("  quadratic pot.  : %.0f (%.0fx rougher than adaptive)\n",
              base_metrics.psi, base_metrics.psi / metrics.psi);
  return 0;
}
