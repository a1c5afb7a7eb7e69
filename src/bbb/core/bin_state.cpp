#include "bbb/core/bin_state.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "bbb/core/metrics.hpp"

namespace bbb::core {

namespace {

// Levels above this are computed by std::pow instead of extending the
// (1+eps)^{-l} cache, so one huge weighted add cannot allocate an
// unbounded cache. (1/1.005)^{2^20} underflows to 0 long before this.
constexpr std::uint32_t kPowCacheMax = 1u << 20;

}  // namespace

std::string_view to_string(StateLayout layout) noexcept {
  return layout == StateLayout::kWide ? "wide" : "compact";
}

StateLayout parse_state_layout(std::string_view text) {
  if (text == "wide") return StateLayout::kWide;
  if (text == "compact") return StateLayout::kCompact;
  throw std::invalid_argument("unknown state layout '" + std::string(text) +
                              "' (expected wide|compact)");
}

BinState::BinState(std::uint32_t n, StateLayout layout)
    : n_(n),
      layout_(layout),
      phi_weight_(static_cast<double>(n)),
      pow_neg_(1, 1.0),
      total_capacity_(n) {
  if (n == 0) throw std::invalid_argument("BinState: n must be positive");
  if (layout_ == StateLayout::kWide) {
    loads_.assign(n, 0);
    nonempty_pos_.assign(n, 0);
  } else {
    lanes_.assign(n, 0);
  }
  levels_.reset(n);
}

BinState::BinState(std::vector<std::uint32_t> capacities, StateLayout layout)
    : BinState(capacities.empty() ? 0
                                  : static_cast<std::uint32_t>(capacities.size()),
               layout) {
  capacities_ = std::move(capacities);
  init_capacity_classes();
}

void BinState::init_capacity_classes() {
  total_capacity_ = 0;
  std::map<std::uint32_t, std::uint32_t> bins_of;  // capacity -> #bins
  for (const std::uint32_t c : capacities_) {
    if (c == 0) throw std::invalid_argument("BinState: capacities must be >= 1");
    total_capacity_ += c;
    ++bins_of[c];
  }
  classes_.clear();
  classes_.reserve(bins_of.size());
  std::map<std::uint32_t, std::uint32_t> class_index;  // capacity -> class id
  for (const auto& [c, bins] : bins_of) {
    class_index[c] = static_cast<std::uint32_t>(classes_.size());
    CapacityClass cls;
    cls.capacity = c;
    cls.bins = bins;
    cls.levels.reset(bins);
    classes_.push_back(std::move(cls));
  }
  class_of_.resize(capacities_.size());
  for (std::size_t i = 0; i < capacities_.size(); ++i) {
    class_of_[i] = class_index[capacities_[i]];
  }
  if (classes_.size() > 1) {
    std::vector<double> weights(capacities_.begin(), capacities_.end());
    cap_sampler_.emplace(weights);
  }
}

double BinState::pow_neg_slow(std::uint32_t l) const {
  if (l >= kPowCacheMax) {
    return std::pow(1.0 + kPotentialEpsilon, -static_cast<double>(l));
  }
  // (1+eps)^{-l}, extended one level at a time so lookups stay O(1): loads
  // move by the event's weight per event, and each level is computed once.
  while (pow_neg_.size() <= l) {
    pow_neg_.push_back(pow_neg_.back() / (1.0 + kPotentialEpsilon));
  }
  return pow_neg_[l];
}

void BinState::add_balls(const std::uint32_t* bins, std::size_t count) {
  if (layout_ != StateLayout::kCompact || !classes_.empty()) {
    for (std::size_t i = 0; i < count; ++i) add_ball(bins[i]);
    return;
  }
  if (count == 0) return;
  BatchMetrics m = batch_begin();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t bin = bins[i];
    const std::uint32_t l = lanes_[bin];
    if (l <= kFastLaneMax) [[likely]] {
      batch_add_unit_lane(m, bin, l);
    } else {
      batch_end(m);  // exact path mutates the checked-out counters
      add_ball(bin);
      m = batch_begin();
    }
  }
  batch_end(m);
}

std::uint32_t BinState::overflow_load(std::uint32_t bin) const noexcept {
  const auto it = overflow_.find(bin);
  return it != overflow_.end() ? it->second : kCompactLaneMax;
}

void BinState::overflow_store(std::uint32_t bin, std::uint32_t nl) {
  if (overflow_.insert_or_assign(bin, nl).second) ++compact_promotions_;
}

void BinState::overflow_erase(std::uint32_t bin) {
  if (overflow_.erase(bin) == 1) ++compact_demotions_;
}

void BinState::throw_zero_weight(const char* fn) {
  throw std::invalid_argument("BinState::" + std::string(fn) +
                              ": weight must be positive");
}

void BinState::throw_add_overflow(std::uint32_t bin) {
  throw std::invalid_argument("BinState::add_ball: bin " + std::to_string(bin) +
                              " load would overflow 32 bits");
}

void BinState::throw_remove_underflow(std::uint32_t bin, std::uint32_t l,
                                      std::uint32_t weight) {
  throw std::invalid_argument("BinState::remove_ball: bin " + std::to_string(bin) +
                              " holds " + std::to_string(l) + " < weight " +
                              std::to_string(weight));
}

const std::vector<std::uint32_t>& BinState::loads() const {
  if (layout_ != StateLayout::kWide) {
    throw std::logic_error(
        "BinState::loads: the compact layout keeps no 32-bit load vector; "
        "use copy_loads() or load(bin)");
  }
  return loads_;
}

std::vector<std::uint32_t> BinState::copy_loads() const {
  if (layout_ == StateLayout::kWide) return loads_;
  std::vector<std::uint32_t> out(lanes_.begin(), lanes_.end());
  for (const auto& [bin, l] : overflow_) out[bin] = l;
  return out;
}

double BinState::psi() const noexcept {
  const auto t = static_cast<double>(balls_);
  return static_cast<double>(sum_sq_) - t * t / static_cast<double>(n_);
}

double BinState::log_phi() const noexcept {
  return std::log(phi_weight_) + (average() + 2.0) * std::log1p(kPotentialEpsilon);
}

std::uint32_t BinState::sample_capacity_proportional(rng::Engine& gen) const {
  if (!cap_sampler_.has_value()) {
    return static_cast<std::uint32_t>(rng::uniform_below(gen, n_));
  }
  return (*cap_sampler_)(gen);
}

double BinState::max_norm_load() const noexcept {
  if (classes_.empty()) return static_cast<double>(levels_.max);
  double best = 0.0;
  for (const CapacityClass& cls : classes_) {
    const double v =
        static_cast<double>(cls.levels.max) / static_cast<double>(cls.capacity);
    if (v > best) best = v;
  }
  return best;
}

double BinState::min_norm_load() const noexcept {
  if (classes_.empty()) return static_cast<double>(levels_.min);
  double best = std::numeric_limits<double>::infinity();
  for (const CapacityClass& cls : classes_) {
    const double v =
        static_cast<double>(cls.levels.min) / static_cast<double>(cls.capacity);
    if (v < best) best = v;
  }
  return best;
}

double BinState::weighted_psi() const noexcept {
  const auto t = static_cast<double>(balls_);
  const double centering = t * t / static_cast<double>(total_capacity_);
  if (classes_.empty()) return static_cast<double>(sum_sq_) - centering;
  double sum = 0.0;
  for (const CapacityClass& cls : classes_) {
    sum += static_cast<double>(cls.sum_sq) / static_cast<double>(cls.capacity);
  }
  return sum - centering;
}

std::uint32_t BinState::bins_with_load_at_least(std::uint32_t k) const noexcept {
  if (k == 0) return n();
  std::uint32_t count = 0;
  for (std::size_t l = k; l < levels_.count.size(); ++l) count += levels_.count[l];
  return count;
}

std::uint32_t BinState::sample_nonempty(rng::Engine& gen) const {
  if (layout_ != StateLayout::kWide) {
    throw std::logic_error(
        "BinState::sample_nonempty: the compact layout maintains no "
        "nonempty-bin index; use the wide layout for workloads that serve "
        "uniformly random busy bins");
  }
  if (nonempty_.empty()) {
    throw std::logic_error("BinState::sample_nonempty: every bin is empty");
  }
  return nonempty_[rng::uniform_below(gen, nonempty_.size())];
}

void BinState::clear() noexcept {
  if (layout_ == StateLayout::kWide) {
    std::fill(loads_.begin(), loads_.end(), 0u);
  } else {
    std::fill(lanes_.begin(), lanes_.end(), std::uint8_t{0});
    overflow_.clear();
    compact_promotions_ = 0;
    compact_demotions_ = 0;
  }
  balls_ = 0;
  levels_.reset(n());
  sum_sq_ = 0;
  phi_weight_ = static_cast<double>(n());
  nonempty_.clear();
  // Reset the bin->index slots too: a stale entry is never read by the
  // add/remove protocol, but "cleared == freshly constructed" is the
  // contract, and any future reader of the index must not see garbage.
  std::fill(nonempty_pos_.begin(), nonempty_pos_.end(), 0u);
  for (CapacityClass& cls : classes_) {
    cls.levels.reset(cls.bins);
    cls.sum_sq = 0;
  }
}

}  // namespace bbb::core
