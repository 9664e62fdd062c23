// Injection throttling gate — the paper's Algorithm 3, as hardware would
// implement it: a free-running 7-bit counter plus one comparator per node.
//
// The counter advances only on cycles where the node is trying to inject AND
// an output link is free (the caller guarantees this by consulting the
// fabric's can_accept() first); the attempt is allowed iff the counter has
// passed the rate threshold within its current wrap. This deterministically
// blocks a `rate` fraction of eligible attempts with no randomness and no
// multiplier hardware.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace nocsim {

class InjectionThrottler {
 public:
  /// 7-bit counter (§6.5 hardware cost: "a free-running 7-bit counter and a
  /// comparator").
  static constexpr std::uint32_t kMaxCount = 128;

  enum class Gate : std::uint8_t {
    /// Algorithm 3 verbatim: block the first rate*128 eligible attempts of
    /// every 128-attempt wrap. Cheapest hardware, but blocks arrive in long
    /// runs, adding up to ~rate*128 cycles of latency to an isolated miss.
    Deterministic,
    /// Per-attempt Bernoulli(1 - rate) using a small LFSR-style PRNG — the
    /// paper's "randomized algorithms can also be used". Same long-run
    /// block fraction, geometric (short) waits. Default; see
    /// bench/abl_throttle_gate for the comparison.
    Randomized,
  };

  explicit InjectionThrottler(Gate gate = Gate::Randomized, std::uint64_t seed = 0x9a7e)
      : gate_(gate), rng_(seed) {}

  void set_rate(double rate) {
    NOCSIM_CHECK(rate >= 0.0 && rate <= 1.0);
    // Restart the wrap only on an actual rate change: the new rate's block
    // run must not inherit the old wrap's phase (a mid-wrap carry-over can
    // block far more or fewer than rate*kMaxCount of the next wrap's
    // attempts). Same-rate calls — the controller re-applies rates every
    // epoch — leave the counter free-running, as the hardware would.
    if (rate != rate_) count_ = 0;
    rate_ = rate;
    // Truncation is intentional and matches the 7-bit hardware: rates just
    // below 1 floor to threshold 127 (one allowed attempt per wrap), while
    // rate == 1.0 yields threshold 128 — above every counter value, so all
    // attempts block. The realized block fraction is floor(rate*128)/128.
    threshold_ = static_cast<std::uint32_t>(rate * kMaxCount);
  }

  [[nodiscard]] double rate() const { return rate_; }

  /// One eligible injection attempt (trying + output link free). Returns
  /// true if injection is allowed this cycle, false if throttled.
  bool allow() {
    bool allowed = true;
    if (gate_ == Gate::Randomized) {
      allowed = !rng_.next_bool(rate_);
    } else {
      // Compare before advancing: attempts 0..threshold_-1 of each wrap are
      // the blocked ones, forming a contiguous leading run — Algorithm 3's
      // "block the first rate*128 attempts". (Increment-then-compare would
      // strand the count_ == 0 block at the *end* of each wrap.)
      allowed = count_ >= threshold_;
      count_ = (count_ + 1) % kMaxCount;
    }
    if (!allowed) ++blocked_;
    return allowed;
  }

  /// Cumulative attempts the gate denied (monotone; telemetry samples it as
  /// per-interval deltas).
  [[nodiscard]] std::uint64_t blocked_attempts() const { return blocked_; }

  /// Whether any throttling is configured. Keyed on the rate, not the
  /// counter threshold: rates below 1/kMaxCount floor to threshold_ == 0,
  /// yet the Randomized gate still blocks at exactly that rate.
  [[nodiscard]] bool active() const { return rate_ > 0.0; }
  [[nodiscard]] Gate gate() const { return gate_; }

 private:
  Gate gate_;
  double rate_ = 0.0;
  std::uint32_t threshold_ = 0;
  std::uint32_t count_ = 0;
  std::uint64_t blocked_ = 0;
  Rng rng_;
};

}  // namespace nocsim
