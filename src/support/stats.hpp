#pragma once

/// \file stats.hpp
/// Small statistics helpers for simulation measurements and benchmark
/// reporting (Welford running moments, relative errors).

#include <cstddef>
#include <vector>

namespace elrr {

/// Numerically stable running mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;     ///< sample variance (n-1 denominator)
  double stddev() const;
  double stderr_mean() const;  ///< standard error of the mean
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Relative difference (a - b) / b, in percent; the paper's err(%) and
/// Delta(%) metrics. Returns 0 when both are zero.
double relative_percent(double a, double b);

/// Arithmetic mean of a vector (0 for empty input).
double mean_of(const std::vector<double>& xs);

/// Order-statistic percentile of an ascending-sorted, non-empty sample:
/// the element at rank round(q * (n - 1)), q in [0, 1]. Never
/// interpolated, so it is always an observed value in [min, max].
double sorted_percentile(const std::vector<double>& sorted, double q);

}  // namespace elrr
