// Synthetic instruction-trace generator (the Table 1 substitution).
//
// Address stream model: a memory op targets either
//   - the *hot set*: a sequential walk over `hot_blocks` cache blocks that
//     fit comfortably in the L1 (hits after warm-up, giving spatial
//     locality and keeping hot lines MRU), or
//   - the *cold stream*: uniform-random blocks in a large private region
//     (always L1 misses; their L2 homes scatter per the mapping policy).
// The cold probability is phase-modulated per AppProfile::phase, producing
// Fig. 6-style temporal intensity variation and epoch-to-epoch IPF variance.
//
// Each generator instance gets a disjoint address region (derived from its
// stream id) so co-scheduled copies of one application do not share blocks.
#pragma once

#include <cmath>
#include <numbers>

#include "common/rng.hpp"
#include "cpu/trace.hpp"
#include "workload/app_profile.hpp"

namespace nocsim {

class SyntheticTrace final : public TraceSource {
 public:
  /// `stream` disambiguates instances (normally the node id).
  SyntheticTrace(const AppProfile& profile, std::uint64_t seed, std::uint64_t stream)
      : profile_(profile),
        rng_(Rng(seed).fork(stream ^ 0xA99)),
        region_base_((stream + 1) << 34),  // 16 GiB of private address space
        burst_on_(false) {
    schedule_burst();
  }

  Insn next() override {
    ++idx_;
    if (!rng_.next_bool(profile_.mem_fraction)) return Insn{false, 0};

    // Phase modulation varies over >= 60k accesses; refreshing the cached
    // value every 256 keeps the trig/burst logic off the per-op hot path.
    if (idx_ >= cold_refresh_at_) {
      cached_cold_ = current_cold_fraction();
      cold_refresh_at_ = idx_ + 256;
    }
    if (rng_.next_bool(cached_cold_)) {
      // Cold stream: random block in a 2^24-block region — practically
      // always an L1 miss.
      const Addr block = region_base_ / kBlockBytes + rng_.next_below(1u << 24);
      return Insn{true, block * kBlockBytes};
    }
    // Hot set: sequential walk.
    hot_cursor_ = (hot_cursor_ + 1) % profile_.hot_blocks;
    const Addr block = region_base_ / kBlockBytes + (1ull << 25) + hot_cursor_;
    return Insn{true, block * kBlockBytes};
  }

  /// Instantaneous cold-stream probability after phase modulation.
  [[nodiscard]] double current_cold_fraction() {
    switch (profile_.phase) {
      case PhaseStyle::Steady:
        return profile_.cold_fraction;
      case PhaseStyle::Sine: {
        const double t = static_cast<double>(idx_) /
                         static_cast<double>(profile_.phase_period);
        const double mod =
            1.0 + profile_.phase_amplitude * std::sin(2.0 * std::numbers::pi * t);
        return std::min(1.0, profile_.cold_fraction * mod);
      }
      case PhaseStyle::Burst: {
        if (idx_ >= burst_until_) {
          burst_on_ = !burst_on_;
          schedule_burst();
        }
        // ON bursts at (1 + 2A)x for 1/3 of the time, OFF at (1 - A)x for
        // 2/3: time-weighted mean multiplier == 1, preserving the target
        // IPF while creating epoch-scale variance.
        const double mult = burst_on_ ? (1.0 + 2.0 * profile_.phase_amplitude)
                                      : (1.0 - profile_.phase_amplitude);
        return std::min(1.0, profile_.cold_fraction * mult);
      }
    }
    return profile_.cold_fraction;
  }

  static constexpr Addr kBlockBytes = 32;

 private:
  void schedule_burst() {
    const auto mean = static_cast<double>(profile_.phase_period);
    const double dur = burst_on_ ? mean / 3.0 : 2.0 * mean / 3.0;
    burst_until_ = idx_ + 1 + static_cast<std::uint64_t>(rng_.next_exponential(1.0 / dur));
  }

  const AppProfile profile_;
  Rng rng_;
  Addr region_base_;
  std::uint64_t idx_ = 0;
  std::uint64_t hot_cursor_ = 0;
  bool burst_on_;
  std::uint64_t burst_until_ = 0;
  double cached_cold_ = 0.0;
  std::uint64_t cold_refresh_at_ = 0;
};

}  // namespace nocsim
