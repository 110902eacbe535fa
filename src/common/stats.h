#ifndef HDIDX_COMMON_STATS_H_
#define HDIDX_COMMON_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hdidx::common {

/// Result of a simple ordinary-least-squares line fit y = slope * x +
/// intercept. Used by the fractal-dimension estimators, which fit log-log
/// plots of box counts against grid resolution.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Pearson correlation coefficient of (x, y); 1.0 for a perfect line.
  double r = 0.0;
  size_t n = 0;
};

/// Fits a least-squares line through (x[i], y[i]). Requires x.size() ==
/// y.size(); with fewer than two points the fit is degenerate (slope 0).
LineFit FitLine(const std::vector<double>& x, const std::vector<double>& y);

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& v);

/// Population variance (divide by n); 0 for fewer than two elements.
double Variance(const std::vector<double>& v);

/// Pearson correlation between two equally sized vectors; 0 if degenerate.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// p-th percentile (p in [0, 1]) with linear interpolation between order
/// statistics; 0 for an empty vector.
double Percentile(std::vector<double> v, double p);

/// Relative error (predicted - actual) / actual as used throughout the
/// paper's tables: negative values are underestimations, positive values are
/// overestimations. Returns 0 when actual == 0.
double RelativeError(double predicted, double actual);

/// Accumulates mean and variance in one pass (Welford's algorithm). Used by
/// the bulk loader's maximum-variance split, which must find the dimension
/// of highest variance over millions of coordinates without a second pass.
class RunningStats {
 public:
  void Add(double x);
  size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Population variance; 0 with fewer than two observations.
  double variance() const;

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Fixed-size, log-bucketed histogram of non-negative values: constant
/// memory however many values it records, for long-running tallies such as
/// the prediction service's per-shard latencies (p50/p90/p99).
///
/// Bucket 0 holds [0, kMinValue); bucket b in [1, kNumBuckets - 2] holds
/// [kMinValue * 2^((b-1)/4), kMinValue * 2^(b/4)) — four buckets per
/// doubling, so each spans about 19% of its lower bound; the last bucket
/// holds everything from kMinValue * 2^((kNumBuckets-2)/4) (about 3e5 for
/// the defaults) upward. Percentile() reports the geometric midpoint of
/// the bucket holding the nearest-rank order statistic, clamped to the
/// exact minimum and maximum seen, so it lands in the same bucket as the
/// exact percentile of any sequence dense enough that neighbouring order
/// statistics share or adjoin buckets.
class LogHistogram {
 public:
  static constexpr size_t kNumBuckets = 128;
  static constexpr double kMinValue = 1e-4;

  /// Records one value; negative and NaN values count into bucket 0.
  void Add(double value);

  uint64_t count() const { return count_; }

  /// Estimated p-th percentile (p in [0, 1]); 0 when empty.
  double Percentile(double p) const;

  /// The bucket `value` falls into.
  static size_t BucketOf(double value);

 private:
  std::array<uint64_t, kNumBuckets> counts_{};
  uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace hdidx::common

#endif  // HDIDX_COMMON_STATS_H_
