#pragma once
/// \file skewed_adaptive.hpp
/// adaptive with a *biased* probe distribution — what happens when the
/// "choose a bin uniformly at random" primitive is really a hash with a
/// skewed range (Zipf(s) over the bins).
///
/// The acceptance rule is distribution-free, so the paper's max-load bound
/// ceil(m/n) + 1 survives arbitrary skew by construction. What breaks is
/// the *allocation time*: rarely-probed bins fill only when everything else
/// is saturated, so probes blow up with s (each stage's endgame must find
/// the cold bins through the biased sampler). bench_ablation_skew measures
/// the degradation curve; the takeaway is that Theorem 3.1's O(m) leans on
/// near-uniform sampling while the load guarantee does not.

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/rng/zipf.hpp"

namespace bbb::core {

/// Streaming adaptive rule probing bins ~ Zipf(s).
class SkewedAdaptiveRule final : public PlacementRule {
 public:
  /// \param n bins; \param s Zipf exponent (0 = uniform = plain adaptive).
  /// \throws std::invalid_argument if n == 0 or s < 0.
  SkewedAdaptiveRule(std::uint32_t n, double s);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t bound_n() const noexcept override { return n_; }
  [[nodiscard]] double s() const noexcept { return zipf_.s(); }

 protected:
  std::uint32_t do_place(BinState& state, std::uint32_t weight,
                         rng::Engine& gen) override;

 private:
  std::uint32_t n_;
  rng::ZipfDist zipf_;
  std::uint32_t bound_ = 1;
  std::uint32_t stage_fill_ = 0;
};

}  // namespace bbb::core
