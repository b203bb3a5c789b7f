#include "stats/moments.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace abw::stats {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  std::size_t total = n_ + other.n_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / static_cast<double>(total);
  mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(total);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = total;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (!(q >= 0.0 && q <= 1.0))  // also rejects NaN
    throw std::invalid_argument("quantile: q must be in [0,1]");
  if (xs.empty()) return 0.0;
  double pos = q * static_cast<double>(xs.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  // The lo-th order statistic by selection, and the (lo+1)-th as the least
  // of what selection leaves above it: the values a full sort would put
  // at lo and lo + 1.
  auto lo_it = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), lo_it, xs.end());
  double x_lo = *lo_it;
  double x_hi = lo + 1 < xs.size() ? *std::min_element(lo_it + 1, xs.end()) : x_lo;
  return x_lo * (1.0 - frac) + x_hi * frac;
}

double relative_error(double x, double reference) {
  if (reference == 0.0) throw std::invalid_argument("relative_error: reference is 0");
  return (x - reference) / reference;
}

double mean_abs_relative_error(const std::vector<double>& xs, double reference) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += std::abs(relative_error(x, reference));
  return s / static_cast<double>(xs.size());
}

}  // namespace abw::stats
