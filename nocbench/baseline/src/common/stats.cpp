#include "common/stats.hpp"

namespace nocsim {

double Histogram::quantile(double q) const {
  NOCSIM_CHECK(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return lo_;
  const auto target = static_cast<double>(total_) * q;
  std::uint64_t cum = 0;
  const double bin_width = (hi_ - lo_) / static_cast<double>(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t next = cum + counts_[i];
    if (static_cast<double>(next) >= target) {
      const double within =
          counts_[i] ? (target - static_cast<double>(cum)) / static_cast<double>(counts_[i]) : 0.0;
      return lo_ + (static_cast<double>(i) + within) * bin_width;
    }
    cum = next;
  }
  return hi_;
}

}  // namespace nocsim
