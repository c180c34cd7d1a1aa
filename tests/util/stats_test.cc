/**
 * @file
 * Statistics helper tests: Welford accumulator and percentiles.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"
#include "util/stats.h"

namespace ecov {
namespace {

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleSample)
{
    RunningStats s;
    s.add(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of the classic dataset is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, NegativeValues)
{
    RunningStats s;
    s.add(-3.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(PercentileOf, EmptyIsZero)
{
    EXPECT_DOUBLE_EQ(percentileOf({}, 95), 0.0);
}

TEST(PercentileOf, Endpoints)
{
    const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentileOf(v, 0), 10.0);
    EXPECT_DOUBLE_EQ(percentileOf(v, 100), 40.0);
    EXPECT_DOUBLE_EQ(percentileOf(v, 50), 25.0);
}

TEST(PercentileOf, UnsortedInputHandled)
{
    EXPECT_DOUBLE_EQ(percentileOf({40.0, 10.0, 30.0, 20.0}, 50), 25.0);
}

TEST(PercentileOf, SingleElement)
{
    EXPECT_DOUBLE_EQ(percentileOf({7.0}, 95), 7.0);
    EXPECT_DOUBLE_EQ(percentileOf({7.0}, 5), 7.0);
}

TEST(PercentileOf, OutOfRangeClamped)
{
    EXPECT_DOUBLE_EQ(percentileOf({1.0, 2.0}, -10), 1.0);
    EXPECT_DOUBLE_EQ(percentileOf({1.0, 2.0}, 200), 2.0);
}

TEST(PercentileOf, InterpolationIsMonotone)
{
    std::vector<double> v{1, 3, 9, 27, 81};
    double prev = -1;
    for (double p = 0; p <= 100; p += 5) {
        double q = percentileOf(v, p);
        EXPECT_GE(q, prev);
        prev = q;
    }
}

/** Property: percentile of a uniform sample approximates p/100. */
class PercentileProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(PercentileProperty, UniformSample)
{
    double p = GetParam();
    Rng rng(99);
    std::vector<double> v;
    for (int i = 0; i < 20000; ++i)
        v.push_back(rng.uniform(0.0, 1.0));
    EXPECT_NEAR(percentileOf(v, p), p / 100.0, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileProperty,
                         ::testing::Values(5.0, 30.0, 33.0, 50.0, 95.0,
                                           99.0));

} // namespace
} // namespace ecov
