#pragma once
/// \file checks.hpp
/// Output checks of the benchmark. Every check is a pure function of a
/// result the program returned, so tests/checks_test.cpp can feed each one
/// a deliberately corrupted result and watch it fire. A failed check, like
/// a failed or incomplete replicate, counts toward the run's `failed`
/// total (and so against `pass_ratio`).

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Slack c in the shard-greedy gap check max - m/n <= log2(ln n) + c.
/// greedy[2]'s gap is ln ln n / ln 2 + O(1) (Berenbrink et al.); at
/// n = 2^22, m/n = 8 the observed gap is 3 against log2(ln n) = 3.93, so
/// c = 2 leaves room for seed variation without hiding a broken rule
/// (one-choice's gap there is above 10).
inline constexpr double kShardGapSlack = 2.0;

/// The three load statistics two runs of one seed must agree on.
struct Placement {
  double max_load = 0.0;
  double min_load = 0.0;
  double psi = 0.0;

  friend bool operator==(const Placement&, const Placement&) = default;
};

/// Theorem 3.1: adaptive ends with max load <= ceil(m/n) + 1.
[[nodiscard]] inline bool within_theorem31(double max_load, std::uint64_t m,
                                           std::uint32_t n) {
  return max_load <= static_cast<double>((m + n - 1) / n + 1);
}

/// Level counts describe exactly n bins holding exactly `balls` balls:
/// sum_l count[l] == n and sum_l l * count[l] == balls.
[[nodiscard]] inline bool level_identity_holds(const std::vector<std::uint32_t>& levels,
                                               std::uint64_t balls, std::uint32_t n) {
  std::uint64_t bins = 0;
  std::uint64_t weighted = 0;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    bins += levels[l];
    weighted += static_cast<std::uint64_t>(l) * levels[l];
  }
  return bins == n && weighted == balls;
}

/// Fixed-population churn ends with exactly `population` balls in the
/// system and never drops a departure.
[[nodiscard]] inline bool population_holds(std::uint64_t balls_in_system,
                                           std::uint64_t population,
                                           std::uint64_t dropped_departures) {
  return balls_in_system == population && dropped_departures == 0;
}

/// Sharded-run conservation: every one of the m balls was placed once,
/// and the merged level counts account for all of them.
[[nodiscard]] inline bool conservation_holds(std::uint64_t balls, std::uint64_t m,
                                             const std::vector<std::uint32_t>& levels,
                                             std::uint32_t n) {
  return balls == m && level_identity_holds(levels, m, n);
}

/// greedy[2] gap bound: max - m/n <= log2(ln n) + kShardGapSlack.
[[nodiscard]] inline bool greedy_gap_holds(double max_load, std::uint64_t m,
                                           std::uint32_t n) {
  const double avg = static_cast<double>(m) / static_cast<double>(n);
  return max_load - avg <= std::log2(std::log(static_cast<double>(n))) + kShardGapSlack;
}

/// Counts checks made and failed; keeps the first few failure messages.
struct CheckTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  bool expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 16) failures.push_back(what);
    }
    return ok;
  }
};

}  // namespace perfbench
