// Latency sample reservoir with exact quantiles.
#pragma once

#include <cstddef>
#include <vector>

namespace ibc {

/// Reservoir of samples with exact quantiles. Stores every sample; meant
/// for per-experiment latency distributions (10^4..10^6 samples).
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double min();
  double max();

  /// Exact quantile, q in [0,1]; q=0.5 is the median. Empty -> 0.
  double quantile(double q);

  const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted();

  std::vector<double> values_;
  bool sorted_ = false;
};

}  // namespace ibc
