#pragma once
/// \file engine.hpp
/// Engine concept and the uniform primitives every protocol hot loop uses:
/// unbiased bounded integers (Lemire's method) and 53-bit canonical doubles.

#include <concepts>
#include <cstdint>

namespace bbb::rng {

/// A 64-bit uniform random word source. Both library engines
/// (Xoshiro256PlusPlus, Pcg32) and SplitMix64 satisfy this.
template <typename G>
concept Engine64 = requires(G g) {
  { g() } -> std::convertible_to<std::uint64_t>;
  { G::min() } -> std::convertible_to<std::uint64_t>;
  { G::max() } -> std::convertible_to<std::uint64_t>;
};

/// The bound-mapping of Lemire's method: the value a raw 64-bit word
/// produces for `bound` when it is not rejected — the high 64 bits of
/// word * bound. Exposed (rather than folded into uniform_below) because
/// the probe lookahead in core/probe.hpp prefetches the bin a buffered
/// word *will* map to; keeping one copy here guarantees the prefetch
/// target and the consumed value can never drift apart.
[[nodiscard]] constexpr std::uint64_t lemire_map(std::uint64_t word,
                                                 std::uint64_t bound) noexcept {
  return static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(word) * static_cast<__uint128_t>(bound)) >> 64);
}

/// The rejection step of uniform_below, out of line: `x` is the first
/// word, whose product with `bound` has a low half below `bound`.
/// Redraws while the low half is below 2^64 mod bound (the one division,
/// paid only here) and maps the accepted word.
template <Engine64 G>
[[gnu::noinline]] std::uint64_t uniform_below_reject(G& gen, std::uint64_t x,
                                                     std::uint64_t bound) {
  std::uint64_t lo = x * bound;  // the low half of the 128-bit product
  const std::uint64_t threshold = (0 - bound) % bound;
  while (lo < threshold) {
    x = gen();
    lo = x * bound;
  }
  return lemire_map(x, bound);
}

/// Unbiased uniform integer in [0, bound) via Lemire's multiply-shift
/// rejection method — one multiply in the common case, no division unless a
/// rare rejection occurs. The common case is a multiply and a compare,
/// small enough to inline into hot draw loops (the shard round's among
/// them); a rejection candidate (probability < bound / 2^64 per draw)
/// calls uniform_below_reject. Precondition: bound >= 1.
template <Engine64 G>
[[nodiscard]] inline std::uint64_t uniform_below(G& gen, std::uint64_t bound) {
  const std::uint64_t x = gen();
  if (x * bound < bound) [[unlikely]] return uniform_below_reject(gen, x, bound);
  return lemire_map(x, bound);
}

/// Uniform integer in the closed range [lo, hi]. Precondition: lo <= hi.
template <Engine64 G>
[[nodiscard]] std::uint64_t uniform_range(G& gen, std::uint64_t lo, std::uint64_t hi) {
  return lo + uniform_below(gen, hi - lo + 1);
}

/// Uniform double in [0, 1) with full 53-bit mantissa resolution.
template <Engine64 G>
[[nodiscard]] double next_double(G& gen) {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

/// Uniform double in (0, 1] — safe to pass to log().
template <Engine64 G>
[[nodiscard]] double next_double_nonzero(G& gen) {
  return (static_cast<double>(gen() >> 11) + 1.0) * 0x1.0p-53;
}

/// Bernoulli(p) trial.
template <Engine64 G>
[[nodiscard]] bool bernoulli(G& gen, double p) {
  return next_double(gen) < p;
}

}  // namespace bbb::rng
