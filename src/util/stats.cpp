#include "util/stats.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"

namespace ibc {

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double Samples::min() {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.front();
}

double Samples::max() {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.back();
}

double Samples::quantile(double q) {
  IBC_REQUIRE(q >= 0.0 && q <= 1.0);
  if (values_.empty()) return 0.0;
  ensure_sorted();
  // Nearest-rank with linear interpolation between adjacent order stats.
  const double pos = q * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

void Samples::ensure_sorted() {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

}  // namespace ibc
