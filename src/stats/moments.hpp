// Descriptive statistics: streaming moments (Welford), batch helpers, and
// quantiles.  Used throughout the library — sample means of avail-bw
// samples (Eq. 11 of the paper), standard deviations across averaging time
// scales (Fig. 2), and relative-error summaries (Table 1).
#pragma once

#include <cstddef>
#include <vector>

namespace abw::stats {

/// Numerically stable streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x);

  /// Number of observations so far.
  std::size_t count() const { return n_; }

  /// Sample mean; 0 when empty.
  double mean() const { return mean_; }

  /// Unbiased sample variance (divides by n-1); 0 when n < 2.
  double variance() const;

  /// sqrt(variance()).
  double stddev() const;

  /// Smallest / largest observation; undefined when empty.
  double min() const { return min_; }
  double max() const { return max_; }

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a vector; 0 when empty.
double mean(const std::vector<double>& xs);

/// Unbiased sample variance; 0 when fewer than 2 elements.
double variance(const std::vector<double>& xs);

/// sqrt(variance(xs)).
double stddev(const std::vector<double>& xs);

/// Median (average of middle two for even sizes); 0 when empty.
double median(std::vector<double> xs);

/// q-quantile via linear interpolation, q in [0, 1]; 0 when empty.
/// Throws std::invalid_argument for q outside [0, 1] (NaN included).
double quantile(std::vector<double> xs, double q);

/// Relative error (x - reference) / reference.  The paper's epsilon metric.
double relative_error(double x, double reference);

/// Mean absolute relative error of a sample set against a reference.
double mean_abs_relative_error(const std::vector<double>& xs, double reference);

}  // namespace abw::stats
