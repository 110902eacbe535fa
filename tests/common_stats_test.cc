#include "common/stats.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "gtest/gtest.h"

namespace hdidx::common {
namespace {

TEST(FitLineTest, RecoversExactLine) {
  std::vector<double> x = {0, 1, 2, 3, 4};
  std::vector<double> y = {1, 3, 5, 7, 9};  // y = 2x + 1
  const LineFit fit = FitLine(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r, 1.0, 1e-12);
}

TEST(FitLineTest, NegativeSlopeAndCorrelation) {
  std::vector<double> x = {0, 1, 2, 3};
  std::vector<double> y = {6, 4, 2, 0};
  const LineFit fit = FitLine(x, y);
  EXPECT_NEAR(fit.slope, -2.0, 1e-12);
  EXPECT_NEAR(fit.r, -1.0, 1e-12);
}

TEST(FitLineTest, DegenerateInputs) {
  EXPECT_EQ(FitLine({}, {}).slope, 0.0);
  EXPECT_EQ(FitLine({1.0}, {2.0}).slope, 0.0);
  // Vertical data (constant x) cannot be fit.
  const LineFit fit = FitLine({3, 3, 3}, {1, 2, 3});
  EXPECT_EQ(fit.slope, 0.0);
}

TEST(FitLineTest, NoisyLineSlopeClose) {
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(i);
    y.push_back(0.5 * i + ((i % 2 == 0) ? 0.1 : -0.1));
  }
  const LineFit fit = FitLine(x, y);
  EXPECT_NEAR(fit.slope, 0.5, 1e-3);
  EXPECT_GT(fit.r, 0.999);
}

TEST(StatsTest, MeanAndVariance) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_NEAR(Mean({2, 4, 6}), 4.0, 1e-12);
  EXPECT_EQ(Variance({5.0}), 0.0);
  EXPECT_NEAR(Variance({1, 3}), 1.0, 1e-12);  // population variance
  EXPECT_NEAR(Variance({2, 2, 2, 2}), 0.0, 1e-12);
}

TEST(StatsTest, PearsonCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
  // Uncorrelated-by-construction: symmetric y over monotone x.
  EXPECT_NEAR(PearsonCorrelation({-1, 0, 1}, {1, 0, 1}), 0.0, 1e-12);
}

TEST(StatsTest, PercentileInterpolatesOrderStatistics) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.0), 7.0);
  EXPECT_EQ(Percentile({7.0}, 1.0), 7.0);
  // {1..5}: p0=1, p50=3, p100=5, p25 halfway between 2 and 3.
  const std::vector<double> v = {5, 1, 4, 2, 3};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0}, 0.5), 1.5);
  // Out-of-range p clamps.
  EXPECT_DOUBLE_EQ(Percentile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 2.0), 5.0);
  // p90 of ten latencies: between the 9th and 10th order statistic.
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(ten, 0.9), 9.1);
}

TEST(LogHistogramTest, PercentilesLandWithinOneBucketOfExact) {
  // A latency-like sequence: a dense body between 0.05 and 5 ms (cache
  // hits) plus a 5% tail between 20 and 300 ms (cold computes), in a
  // scrambled order.
  std::vector<double> values;
  LogHistogram histogram;
  for (uint64_t i = 0; i < 20000; ++i) {
    const double u = static_cast<double>((i * 7919) % 20011) / 20011.0;
    const double v = i % 20 == 0 ? 20.0 + 280.0 * u : 0.05 + 4.95 * u * u;
    values.push_back(v);
    histogram.Add(v);
  }
  EXPECT_EQ(histogram.count(), values.size());
  for (const double p : {0.5, 0.9, 0.99}) {
    const double exact = Percentile(values, p);
    const double estimate = histogram.Percentile(p);
    const auto exact_bucket =
        static_cast<long>(LogHistogram::BucketOf(exact));
    const auto estimate_bucket =
        static_cast<long>(LogHistogram::BucketOf(estimate));
    EXPECT_LE(std::abs(exact_bucket - estimate_bucket), 1)
        << "p" << p << ": exact " << exact << ", estimate " << estimate;
  }
  // The extremes are tracked exactly.
  EXPECT_EQ(histogram.Percentile(0.0), Percentile(values, 0.0));
  EXPECT_EQ(histogram.Percentile(1.0), Percentile(values, 1.0));
}

TEST(LogHistogramTest, EmptyTinyAndHugeValues) {
  LogHistogram histogram;
  EXPECT_EQ(histogram.Percentile(0.5), 0.0);
  histogram.Add(0.0);
  histogram.Add(-3.0);  // counted as 0
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_EQ(histogram.Percentile(0.99), 0.0);
  histogram.Add(1e12);  // past the last bucket's lower bound
  EXPECT_EQ(LogHistogram::BucketOf(1e12), LogHistogram::kNumBuckets - 1);
  EXPECT_EQ(histogram.Percentile(1.0), 1e12);
  // Buckets are contiguous and ordered.
  EXPECT_EQ(LogHistogram::BucketOf(LogHistogram::kMinValue / 2), 0u);
  EXPECT_EQ(LogHistogram::BucketOf(LogHistogram::kMinValue), 1u);
  EXPECT_LT(LogHistogram::BucketOf(1.0), LogHistogram::BucketOf(1.5));
}

TEST(StatsTest, RelativeErrorSignConvention) {
  // Positive = overestimation, negative = underestimation (paper Table 3).
  EXPECT_NEAR(RelativeError(110, 100), 0.10, 1e-12);
  EXPECT_NEAR(RelativeError(68, 100), -0.32, 1e-12);
  EXPECT_EQ(RelativeError(5, 0), 0.0);
}

TEST(RunningStatsTest, MatchesBatchComputation) {
  const std::vector<double> v = {1.5, -2.0, 3.25, 0.0, 7.5, -1.25};
  RunningStats rs;
  for (double x : v) rs.Add(x);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), Mean(v), 1e-12);
  EXPECT_NEAR(rs.variance(), Variance(v), 1e-12);
}

TEST(RunningStatsTest, SingleObservationHasZeroVariance) {
  RunningStats rs;
  rs.Add(42.0);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_EQ(rs.mean(), 42.0);
}

TEST(RunningStatsTest, NumericallyStableForLargeOffsets) {
  // Naive sum-of-squares would lose precision at offset 1e9.
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) rs.Add(1e9 + (i % 2));
  EXPECT_NEAR(rs.variance(), 0.25, 1e-6);
}

}  // namespace
}  // namespace hdidx::common
