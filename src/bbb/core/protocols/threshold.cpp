#include "bbb/core/protocols/threshold.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "bbb/core/probe.hpp"

namespace bbb::core {

namespace {

constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();

[[noreturn]] void reject(const char* what) {
  throw std::invalid_argument(std::string("ThresholdRule: ") + what);
}

}  // namespace

ThresholdRule::ThresholdRule(std::string name, std::uint32_t n, Clock clock,
                             std::uint64_t count, std::uint32_t slack,
                             std::optional<double> zipf_s)
    : name_(std::move(name)), n_(n), slack_(slack), clock_(clock) {
  if (n == 0) reject("n must be positive");
  switch (clock) {
    case Clock::kFixed:
      // slack 0 (bound ceil(m/n) - 1) still terminates for the first m
      // balls, as m - 1 balls cannot fill all n bins to ceil(m/n); only
      // m == 0 would underflow.
      if (slack == 0 && count == 0) reject("slack 0 needs m > 0");
      bound_ = bound_for(count, n, slack);
      break;
    case Clock::kPlaced:
      if (count == 0) reject("delta must be positive");
      if (count > n) {
        reject("delta must be <= n (else the stale bound can lag more than one "
               "stage and termination is no longer guaranteed)");
      }
      period_ = count;
      refresh(0);
      break;
    case Clock::kNet:
      break;
    case Clock::kDoubling:
      if (count == 0) reject("the first guess must be positive");
      bound_ = bound_for(count, n, slack);
      refresh_at_ = count;
      break;
  }
  if (zipf_s) zipf_.emplace(n, *zipf_s);
}

std::uint32_t ThresholdRule::bound_for(std::uint64_t c, std::uint32_t n,
                                       std::uint32_t slack) noexcept {
  // Capping ceil(c/n) at 2^32 keeps the sum exact below the saturation
  // point; the sum is >= 1 when c >= 1 or slack >= 1.
  const std::uint64_t sum = std::min(ceil_div(c, n), kMax32 + 1) + slack;
  return static_cast<std::uint32_t>(std::min(sum - 1, kMax32));
}

void ThresholdRule::refresh(std::uint64_t placed) {
  if (clock_ == Clock::kDoubling) {
    // The guess M was just reached (placed == M): double it, saturating.
    const std::uint64_t guess = placed > kMax64 / 2 ? kMax64 : 2 * placed;
    bound_ = bound_for(guess, n_, slack_);
    refresh_at_ = guess;
    return;
  }
  // kPlaced: `placed` is a publication p, a multiple of delta. The bound
  // floor(p/n) + slack next changes at the first publication in the next
  // stage — one stage on for delta = 1, since delta <= n.
  bound_ = bound_for(placed + 1, n_, slack_);
  const std::uint64_t next_stage = (placed / n_ + 1) * n_;
  refresh_at_ = ceil_div(next_stage, period_) * period_;
}

std::uint32_t ThresholdRule::do_place(BinState& state, std::uint32_t /*weight*/,
                                      rng::Engine& gen) {
  const std::uint32_t bound = accept_bound(state);
  // A fixed bound cannot adapt: once every bin exceeds it the probe loop
  // would never terminate. Detect that state in O(1) instead of spinning.
  if (state.min_load() > bound) [[unlikely]] {
    throw std::logic_error("ThresholdRule: every bin is above the acceptance bound " +
                           std::to_string(bound));
  }
  const auto accept = [&state, bound](std::uint32_t b) { return state.load(b) <= bound; };
  const std::uint32_t bin = zipf_ ? probe_until(gen, *zipf_, probes_, accept)
                                  : probe_until(gen, state.n(), probes_, accept);
  state.add_ball(bin);
  // total_placed_ still excludes this ball (place_one adds it on return).
  if (total_placed_ + 1 == refresh_at_) [[unlikely]] refresh(total_placed_ + 1);
  return bin;
}

}  // namespace bbb::core
