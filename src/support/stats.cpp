#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace elrr {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double relative_percent(double a, double b) {
  if (a == 0.0 && b == 0.0) return 0.0;
  ELRR_REQUIRE(b != 0.0, "relative_percent with zero reference");
  return (a - b) / b * 100.0;
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double sorted_percentile(const std::vector<double>& sorted, double q) {
  ELRR_REQUIRE(!sorted.empty(), "percentile of an empty sample");
  const std::size_t at = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(at, sorted.size() - 1)];
}

}  // namespace elrr
