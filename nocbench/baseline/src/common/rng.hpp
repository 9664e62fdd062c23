// Deterministic random number generation.
//
// Every stochastic element of the simulator (traffic destinations, synthetic
// address streams, workload composition) draws from an Rng seeded from the
// experiment seed, so a run is a pure function of (config, seed). We use
// xoshiro256++ (Blackman & Vigna), seeded through splitmix64 — fast, high
// quality, and trivially reproducible across platforms, unlike
// std::mt19937 + std::distributions whose outputs are not pinned by the
// standard.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"

namespace nocsim {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ PRNG with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derive an independent stream, e.g. one per node: fork(node_id).
  [[nodiscard]] Rng fork(std::uint64_t stream) const {
    std::uint64_t mix = state_[0] ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
    return Rng(splitmix64(mix));
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (for std::shuffle).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    NOCSIM_DCHECK(bound > 0);
    // Lemire's nearly-divisionless method with rejection for exactness.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi) {
    NOCSIM_DCHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial.
  bool next_bool(double p) { return next_double() < p; }

  /// Exponential with given rate lambda (mean 1/lambda).
  double next_exponential(double lambda) {
    NOCSIM_DCHECK(lambda > 0);
    // 1 - U in (0,1], avoids log(0).
    return -std::log(1.0 - next_double()) / lambda;
  }

  /// Geometric: number of failures before first success, p in (0,1].
  std::uint64_t next_geometric(double p) {
    NOCSIM_DCHECK(p > 0 && p <= 1);
    if (p >= 1.0) return 0;
    // Draw before any early-out so the stream advances identically for
    // every p — callers interleave draws across distributions.
    const double num = std::log(1.0 - next_double());
    const double denom = std::log(1.0 - p);
    // Largest double below 2^64; casting a double >= 2^64 to uint64 is UB
    // (UBSan float-cast-overflow). Tiny p can push the quotient past that:
    // below ~1.1e-16, 1-p rounds to 1.0, denom becomes -0.0, and the
    // quotient is -inf/+inf territory. Saturate instead.
    constexpr double kMaxCastable = 18446744073709549568.0;  // 2^64 - 2^11
    if (denom == 0.0) return static_cast<std::uint64_t>(kMaxCastable);
    const double q = num / denom;
    return static_cast<std::uint64_t>(q < kMaxCastable ? q : kMaxCastable);
  }

  /// Pareto (power-law) sample >= xm with tail index alpha.
  double next_pareto(double xm, double alpha) {
    NOCSIM_DCHECK(xm > 0 && alpha > 0);
    return xm / std::pow(1.0 - next_double(), 1.0 / alpha);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace nocsim
