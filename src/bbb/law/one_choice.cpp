#include "bbb/law/one_choice.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "bbb/rng/distributions.hpp"
#include "bbb/rng/engine.hpp"

namespace bbb::law {

namespace {

/// Trim leading/trailing zero levels and build the validated profile.
OccupancyProfile make_profile(std::uint64_t n, std::uint64_t balls, std::uint32_t lo,
                              std::vector<std::uint64_t> counts) {
  std::size_t first = 0;
  while (first < counts.size() && counts[first] == 0) ++first;
  std::size_t last = counts.size();
  while (last > first && counts[last - 1] == 0) --last;
  if (first == last) {
    throw std::logic_error("law profile: no occupied level (internal)");
  }
  counts.erase(counts.begin() + static_cast<std::ptrdiff_t>(last), counts.end());
  counts.erase(counts.begin(), counts.begin() + static_cast<std::ptrdiff_t>(first));
  return OccupancyProfile(n, balls, lo + static_cast<std::uint32_t>(first),
                          std::move(counts));
}

/// The correction walker: dense level counts over [lo, lo + size) plus two
/// Fenwick trees — bin-weighted (weight K_j, for "add a ball to a uniform
/// bin") and ball-weighted (weight j*K_j, for "delete a uniform ball").
/// Moves that step outside the tracked window trigger a rare O(L log L)
/// rebuild with wider margins.
class LevelWalker {
 public:
  LevelWalker(std::uint32_t lo, std::vector<std::uint64_t> counts)
      : lo_(lo), counts_(std::move(counts)) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      bins_ += counts_[i];
      balls_ += counts_[i] * (lo_ + i);
    }
    build_trees();
  }

  [[nodiscard]] std::uint64_t balls() const noexcept { return balls_; }

  /// One uniform ball arrives: level j w.p. K_j / n, bin moves to j + 1.
  void insert(rng::Engine& gen) {
    const std::size_t i = sample(fen_bins_, rng::uniform_below(gen, bins_));
    if (i + 1 >= counts_.size()) grow(lo_, counts_.size() + 16);
    move_bin(i, i + 1);
    ++balls_;
  }

  /// One uniform ball deleted: level j w.p. j * K_j / S, bin moves to j - 1.
  void remove(rng::Engine& gen) {
    const std::size_t i = sample(fen_balls_, rng::uniform_below(gen, balls_));
    if (i == 0) {
      // Level lo_ holds balls only if lo_ > 0; widen downward to lo_ - 1.
      grow(lo_ - 1, counts_.size() + 1);
      move_bin(1, 0);
    } else {
      move_bin(i, i - 1);
    }
    --balls_;
  }

  [[nodiscard]] std::uint32_t lo() const noexcept { return lo_; }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }

 private:
  void build_trees() {
    const std::size_t size = counts_.size();
    fen_bins_.assign(size + 1, 0);
    fen_balls_.assign(size + 1, 0);
    for (std::size_t i = 0; i < size; ++i) {
      if (counts_[i] != 0) {
        add(fen_bins_, i, static_cast<std::int64_t>(counts_[i]));
        add(fen_balls_, i,
            static_cast<std::int64_t>(counts_[i] * (lo_ + i)));
      }
    }
    top_bit_ = 1;
    while (top_bit_ * 2 <= size) top_bit_ *= 2;
  }

  void grow(std::uint32_t new_lo, std::size_t new_size) {
    std::vector<std::uint64_t> wide(new_size, 0);
    const std::size_t shift = lo_ - new_lo;
    for (std::size_t i = 0; i < counts_.size(); ++i) wide[i + shift] = counts_[i];
    lo_ = new_lo;
    counts_ = std::move(wide);
    build_trees();
  }

  /// Move one bin from level index `from` to `to` (adjacent), updating both
  /// trees with the weight deltas.
  void move_bin(std::size_t from, std::size_t to) {
    --counts_[from];
    ++counts_[to];
    add(fen_bins_, from, -1);
    add(fen_bins_, to, +1);
    add(fen_balls_, from, -static_cast<std::int64_t>(lo_ + from));
    add(fen_balls_, to, +static_cast<std::int64_t>(lo_ + to));
  }

  void add(std::vector<std::uint64_t>& tree, std::size_t i, std::int64_t delta) {
    for (std::size_t k = i + 1; k < tree.size(); k += k & (~k + 1)) {
      tree[k] = static_cast<std::uint64_t>(static_cast<std::int64_t>(tree[k]) + delta);
    }
  }

  /// Largest index with prefix sum <= u; returns the 0-based level index.
  [[nodiscard]] std::size_t sample(const std::vector<std::uint64_t>& tree,
                                   std::uint64_t u) const {
    std::size_t idx = 0;
    std::uint64_t rem = u;
    for (std::size_t step = top_bit_; step != 0; step >>= 1) {
      const std::size_t next = idx + step;
      if (next < tree.size() && tree[next] <= rem) {
        idx = next;
        rem -= tree[next];
      }
    }
    return idx;  // prefix(idx) <= u < prefix(idx + 1)
  }

  std::uint32_t lo_ = 0;
  std::uint64_t bins_ = 0;
  std::uint64_t balls_ = 0;
  std::size_t top_bit_ = 1;
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> fen_bins_;   // weight K_j
  std::vector<std::uint64_t> fen_balls_;  // weight (lo_+j) * K_j
};

}  // namespace

OccupancyProfile sample_poisson_profile(std::uint64_t n, double lambda,
                                        rng::Engine& gen) {
  if (n == 0) throw std::invalid_argument("sample_poisson_profile: n must be > 0");
  if (!(lambda >= 0.0) || !std::isfinite(lambda)) {
    throw std::invalid_argument("sample_poisson_profile: lambda must be finite, >= 0");
  }
  if (lambda == 0.0) {
    return OccupancyProfile(n, 0, 0, {n});
  }

  // Levels below j0 hold a bin with probability < e^-64 union-bounded over
  // all n bins: n * P(X < j0) <= e^-64 when j0 = lambda - sqrt(2 lambda t)
  // with t = ln n + 64 (Poisson lower tail, theory::poisson_lower_tail_bound
  // form). Starting the level chain there skips the O(lambda) certainly-empty
  // levels at large average load. Bernstein's bound puts the top of the
  // band at lambda + sqrt(2 lambda t) + t; the profile's levels are 32-bit,
  // so a band past 2^32 is refused before anything is allocated.
  const double t = std::log(static_cast<double>(n)) + 64.0;
  const double spread = std::sqrt(2.0 * lambda * t);
  if (lambda + spread + t >= 4294967296.0) {
    std::ostringstream msg;
    msg << "law sampler: mean load m/n = " << lambda
        << " puts the occupied levels past the profile's 32-bit load range";
    throw std::invalid_argument(msg.str());
  }
  const double lower = lambda - spread;
  const std::uint32_t j0 =
      lower > 1.0 ? static_cast<std::uint32_t>(lower) : 0;

  const rng::PoissonDist dist(lambda);
  std::vector<std::uint64_t> counts;
  std::uint64_t n_rem = n;
  std::uint64_t balls = 0;

  // p = pmf(j) by recurrence; tail = sf(j) by subtraction, refreshed from
  // the stable series whenever it has decayed 1e3x since the last refresh
  // (the subtraction recurrence loses one bit per halving of the tail).
  std::uint32_t j = j0;
  double p = dist.pmf(j);
  double tail = dist.sf(j);
  double refresh = tail;
  while (n_rem > 0) {
    if (tail < refresh * 1e-3) {
      tail = dist.sf(j);
      refresh = tail;
    }
    std::uint64_t k;
    const double r = tail > 0.0 ? p / tail : 1.0;
    if (r >= 1.0) {
      k = n_rem;  // numerically past the end of the tail: everything left
    } else {
      k = rng::BinomialDist(n_rem, r)(gen);
    }
    counts.push_back(k);
    n_rem -= k;
    balls += k * static_cast<std::uint64_t>(j);
    tail -= p;
    ++j;
    p *= lambda / static_cast<double>(j);
  }
  return make_profile(n, balls, j0, std::move(counts));
}

OccupancyProfile sample_one_choice_profile(std::uint64_t m, std::uint64_t n,
                                           rng::Engine& gen) {
  if (n == 0) throw std::invalid_argument("sample_one_choice_profile: n must be > 0");
  if (m == 0) return OccupancyProfile(n, 0, 0, {n});

  const double lambda = static_cast<double>(m) / static_cast<double>(n);
  const OccupancyProfile poissonized = sample_poisson_profile(n, lambda, gen);

  // Walk the Poissonized total S to m one exact uniform move at a time.
  LevelWalker walker(poissonized.base(), poissonized.counts());
  while (walker.balls() < m) walker.insert(gen);
  while (walker.balls() > m) walker.remove(gen);
  return make_profile(n, m, walker.lo(), walker.counts());
}

OccupancyProfile sample_one_choice_profile_conditional(std::uint64_t m,
                                                       std::uint64_t n,
                                                       rng::Engine& gen) {
  if (n == 0) {
    throw std::invalid_argument(
        "sample_one_choice_profile_conditional: n must be > 0");
  }
  std::vector<std::uint64_t> counts;
  std::uint64_t m_rem = m;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t bins_left = n - i;
    std::uint64_t load;
    if (bins_left == 1) {
      load = m_rem;
    } else if (m_rem == 0) {
      load = 0;
    } else {
      load = rng::BinomialDist(m_rem, 1.0 / static_cast<double>(bins_left))(gen);
    }
    if (counts.size() <= load) counts.resize(load + 1, 0);
    ++counts[load];
    m_rem -= load;
  }
  return make_profile(n, m, 0, std::move(counts));
}

}  // namespace bbb::law
