/**
 * @file
 * Deterministic RNG tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "util/rng.h"

namespace ecov {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(7), b(8);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.uniform(0, 1) != b.uniform(0, 1);
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange)
{
    Rng r(1);
    for (int i = 0; i < 1000; ++i) {
        double x = r.uniform(2.0, 3.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 3.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng r(2);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        auto x = r.uniformInt(0, 3);
        EXPECT_GE(x, 0);
        EXPECT_LE(x, 3);
        saw_lo |= x == 0;
        saw_hi |= x == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng r(3);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        double x = r.gaussian(5.0, 2.0);
        sum += x;
        sum_sq += x * x;
    }
    double mean = sum / n;
    double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, GaussianZeroStddevReturnsMeanAndKeepsTheStream)
{
    Rng zero(11), unit(11);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(zero.gaussian(4.5, 0.0), 4.5);
        unit.gaussian(4.5, 1.0);
    }
    // Both engines advanced by the same number of draws.
    EXPECT_EQ(zero.engine()(), unit.engine()());
}

TEST(Rng, GaussianMatchesStdNormalDistributionDrawForDraw)
{
    Rng r(12);
    std::mt19937_64 ref_engine(12);
    for (int i = 0; i < 10000; ++i) {
        std::normal_distribution<double> d(5.0, 2.0);
        EXPECT_EQ(r.gaussian(5.0, 2.0), d(ref_engine)) << "draw " << i;
    }
    EXPECT_EQ(r.engine()(), ref_engine());
}

TEST(Rng, GaussianNegativeStddevIsFatal)
{
    Rng r(13);
    EXPECT_THROW(r.gaussian(1.0, -0.5), FatalError);
    EXPECT_THROW(r.gaussian(1.0, std::nan("")), FatalError);
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(4);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng r(5);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(2.0);
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ForkIsIndependentButDeterministic)
{
    Rng a(11);
    Rng child1 = a.fork();
    Rng b(11);
    Rng child2 = b.fork();
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(child1.uniform(0, 1), child2.uniform(0, 1));
}

} // namespace
} // namespace ecov
