#pragma once
/// \file histogram.hpp
/// Integer histogram for load distributions plus an ASCII bar renderer.
///
/// Load values in balls-into-bins are small non-negative integers clustered
/// around m/n, so the histogram stores exact counts per integer value in a
/// dense vector anchored at the observed minimum.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bbb::stats {

/// Exact counts of integer observations.
class IntHistogram {
 public:
  IntHistogram() = default;

  /// Count one observation of value `v`.
  void add(std::int64_t v, std::uint64_t count = 1);

  /// Count every element of `values`.
  void add_all(const std::vector<std::uint32_t>& values);

  /// Merge another histogram (counts add).
  void merge(const IntHistogram& other);

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }
  /// Smallest / largest observed value. Undefined when empty.
  [[nodiscard]] std::int64_t min() const noexcept { return min_; }
  [[nodiscard]] std::int64_t max() const noexcept { return max_; }
  /// Count of observations equal to `v`.
  [[nodiscard]] std::uint64_t count(std::int64_t v) const noexcept;
  /// Fraction of observations equal to `v`.
  [[nodiscard]] double fraction(std::int64_t v) const noexcept;
  /// Mean of the observations.
  [[nodiscard]] double mean() const noexcept;
  /// Smallest v such that at least q of the mass is <= v, q in [0,1].
  [[nodiscard]] std::int64_t quantile(double q) const;

  /// (value, count) pairs in increasing value order, zero-count gaps included.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::uint64_t>> items() const;

  /// Multi-line ASCII bar chart (one row per value), `width` chars at peak.
  [[nodiscard]] std::string render_ascii(std::size_t width = 50) const;

  friend bool operator==(const IntHistogram&, const IntHistogram&) = default;

 private:
  std::map<std::int64_t, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace bbb::stats
