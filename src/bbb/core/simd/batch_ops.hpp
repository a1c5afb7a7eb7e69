#pragma once
/// \file batch_ops.hpp
/// The ISA boundary of the batch placement kernel: a tiny table of pure
/// byte-array primitives (`SimdOps`) that each backend TU implements with
/// its own vector width, selected once at runtime by CPUID dispatch.
///
/// The kernel (core/batch_kernel.hpp) is organised so that *everything*
/// ISA-specific is a pure function over contiguous arrays with exact
/// integer semantics — no placement decision, cursor arithmetic, or
/// metric update lives behind this boundary. Backends therefore cannot
/// disagree: `map_words` has one mathematical definition, and the
/// lockstep suite (tests/core/batch_kernel_test.cpp) pins every compiled
/// backend against the scalar reference byte for byte. This is also the
/// seam where a GPU backend would slot in: a device kernel that consumes
/// the same word block and emits the same bin array plugs in below the
/// dispatch without touching a decision rule.
///
/// Backends compiled per build (see src/CMakeLists.txt):
///   * scalar    — portable C++, always built; the reference semantics.
///   * avx2      — 4 words per step (vpmuludq cross-products, sign-bias
///                 trick for the unsigned 64-bit rejection compare).
///   * avx512bw  — 8 words per step, rejection compares straight to mask
///                 registers (vpcmpuq), vpmovqd bin packing.
/// `BBB_SIMD=OFF` builds only the scalar TU; the `BBB_SIMD_MAX`
/// environment variable (scalar|avx2|avx512bw) clamps dispatch below the
/// detected ISA at runtime — both paths are exercised by the CI
/// simd-matrix job.

#include <cstdint>
#include <string_view>

namespace bbb::core::simd {

/// Instruction-set tier of a batch-kernel backend, ordered by preference.
enum class SimdTier : std::uint8_t {
  kScalar = 0,    ///< portable C++ reference backend
  kAvx2 = 1,      ///< AVX2: 4 words per vector step
  kAvx512bw = 2,  ///< AVX-512: 8 words per step, compares into mask registers
};

/// Canonical spelling ("scalar" / "avx2" / "avx512bw") for CLIs, JSON
/// records (bbb-bench-v3 `machine.simd`), and the BBB_SIMD_MAX variable.
[[nodiscard]] std::string_view to_string(SimdTier tier) noexcept;

/// Parse a canonical tier name. \throws std::invalid_argument otherwise.
[[nodiscard]] SimdTier parse_simd_tier(std::string_view text);

/// One Lemire mapping stream: a raw 64-bit word maps into the bin range
/// [base, base + bound) as base + high64(word * bound), and is a
/// rejection candidate iff low64(word * bound) < threshold. Callers pass
/// threshold = 2^64 mod bound (zero for powers of two, which therefore
/// never reject) — the exact `rng::uniform_below` criterion, so a wave
/// with no candidate word consumes randomness identically to the scalar
/// stream.
struct MapStream {
  std::uint32_t bound;      ///< range size (bins in the stream's group)
  std::uint32_t base;       ///< first bin of the group
  std::uint64_t threshold;  ///< 2^64 mod bound
};

/// The per-ISA primitive table. All functions have exact integer
/// semantics; every backend must produce byte-identical outputs.
struct SimdOps {
  SimdTier tier = SimdTier::kScalar;

  /// Vectorized word->bin map + rejection scan over `words[0, count)`:
  /// even-indexed words map through `even`, odd-indexed through `odd`
  /// (the two are identical for one-choice and greedy[2]; left[2]'s
  /// alternating group draws use base/bound per parity). Writes
  /// bins[i] and returns true iff ANY word is a rejection candidate —
  /// in which case the caller must replay the wave through the exact
  /// scalar path, because a rejected draw shifts the meaning of every
  /// later word.
  bool (*map_words)(const std::uint64_t* words, std::uint32_t count,
                    MapStream even, MapStream odd, std::uint32_t* bins);
};

/// The scalar reference backend (always compiled).
[[nodiscard]] const SimdOps& scalar_ops() noexcept;
#if defined(BBB_HAVE_AVX2_BACKEND)
/// The AVX2 backend (only when the build compiled it; callers go through
/// `active_ops`, which never returns a tier the CPU cannot run).
[[nodiscard]] const SimdOps& avx2_ops() noexcept;
#endif
#if defined(BBB_HAVE_AVX512BW_BACKEND)
/// The AVX-512BW backend (same caveat as avx2_ops).
[[nodiscard]] const SimdOps& avx512bw_ops() noexcept;
#endif

/// The dispatch decision: highest tier that is (a) compiled into this
/// build, (b) supported by the running CPU, (c) not excluded by the
/// BBB_SIMD_MAX environment variable, and (d) not excluded by
/// `set_simd_tier_override`. Detection and the environment are read once
/// and cached; the override is consulted on every call (test hook).
[[nodiscard]] const SimdOps& active_ops() noexcept;

/// Shorthand for active_ops().tier — what perfbench prints as `simd=` in
/// its machine line.
[[nodiscard]] SimdTier active_simd_tier() noexcept;

/// Test hook: clamp dispatch to at most `tier` for this process (pass
/// detection-capped tiers only; the lockstep suite sweeps every tier the
/// CPU actually supports). Call with no argument to restore CPU dispatch.
void set_simd_tier_override(SimdTier tier) noexcept;
void clear_simd_tier_override() noexcept;

/// Highest tier the running CPU supports among the compiled backends,
/// ignoring BBB_SIMD_MAX and the override — the ceiling a test sweep may
/// request via set_simd_tier_override.
[[nodiscard]] SimdTier detected_simd_tier() noexcept;

}  // namespace bbb::core::simd
