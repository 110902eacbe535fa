#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hdidx::common {

LineFit FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  HDIDX_CHECK(x.size() == y.size());
  LineFit fit;
  fit.n = x.size();
  if (fit.n < 2) return fit;
  const double n = static_cast<double>(fit.n);
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (size_t i = 0; i < fit.n; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  const double var_x = sxx - sx * sx / n;
  const double var_y = syy - sy * sy / n;
  const double cov = sxy - sx * sy / n;
  if (var_x <= 0.0) return fit;
  fit.slope = cov / var_x;
  fit.intercept = (sy - fit.slope * sx) / n;
  fit.r = (var_y > 0.0) ? cov / std::sqrt(var_x * var_y) : 0.0;
  return fit;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  HDIDX_CHECK(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

double RelativeError(double predicted, double actual) {
  if (actual == 0.0) return 0.0;
  return (predicted - actual) / actual;
}

void RunningStats::Add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

namespace {

/// Buckets per doubling of the value.
constexpr double kBucketsPerOctave = 4.0;

/// Lower bound of bucket b >= 1.
double BucketLowerBound(size_t b) {
  return LogHistogram::kMinValue *
         std::exp2(static_cast<double>(b - 1) / kBucketsPerOctave);
}

}  // namespace

size_t LogHistogram::BucketOf(double value) {
  if (!(value >= kMinValue)) return 0;
  const double octaves = std::log2(value / kMinValue);
  const double b = 1.0 + std::floor(octaves * kBucketsPerOctave);
  return b >= static_cast<double>(kNumBuckets - 1) ? kNumBuckets - 1
                                                   : static_cast<size_t>(b);
}

void LogHistogram::Add(double value) {
  if (!(value >= 0.0)) value = 0.0;
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++counts_[BucketOf(value)];
  ++count_;
}

double LogHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  // Nearest-rank order statistic, 0-based, as common::Percentile indexes.
  const auto rank = static_cast<uint64_t>(
      std::llround(p * static_cast<double>(count_ - 1)));
  uint64_t seen = 0;
  size_t b = 0;
  for (; b < kNumBuckets; ++b) {
    seen += counts_[b];
    if (seen > rank) break;
  }
  double estimate = 0.0;
  if (b == 0) {
    estimate = kMinValue / 2.0;
  } else if (b == kNumBuckets - 1) {
    estimate = max_;
  } else {
    estimate = std::sqrt(BucketLowerBound(b) * BucketLowerBound(b + 1));
  }
  return std::min(max_, std::max(min_, estimate));
}

}  // namespace hdidx::common
