/**
 * @file
 * Time-series store tests: step-function semantics, integration,
 * range queries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "telemetry/time_series.h"
#include "util/logging.h"
#include "util/rng.h"

/** Heap allocations made through operator new in this binary. */
static std::atomic<std::int64_t> g_news{0};

void *
operator new(std::size_t n)
{
    ++g_news;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ecov::ts {
namespace {

TEST(TimeSeries, EmptyQueries)
{
    TimeSeries s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.integrateWh(0, 100), 0.0);
    EXPECT_DOUBLE_EQ(s.sumRange(0, 100), 0.0);
}

TEST(TimeSeries, AppendKeepsSamplesInOrder)
{
    TimeSeries s;
    s.append(0, 5.0);
    s.append(60, 7.0);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s.sample(1).value, 7.0);
}

TEST(TimeSeries, NonDecreasingTimestampsEnforced)
{
    TimeSeries s;
    s.append(60, 1.0);
    EXPECT_THROW(s.append(59, 2.0), FatalError);
    // Equal timestamps allowed (multiple writers in one tick).
    s.append(60, 3.0);
    EXPECT_EQ(s.size(), 2u);
}

TEST(TimeSeries, IntegrateConstantPower)
{
    TimeSeries s;
    s.append(0, 100.0); // 100 W from t=0
    // One hour of 100 W is 100 Wh.
    EXPECT_NEAR(s.integrateWh(0, 3600), 100.0, 1e-9);
    // Half the window, half the energy.
    EXPECT_NEAR(s.integrateWh(0, 1800), 50.0, 1e-9);
}

TEST(TimeSeries, IntegrateStepChange)
{
    TimeSeries s;
    s.append(0, 100.0);
    s.append(1800, 200.0);
    // 100 W for 30 min + 200 W for 30 min = 50 + 100 = 150 Wh.
    EXPECT_NEAR(s.integrateWh(0, 3600), 150.0, 1e-9);
}

TEST(TimeSeries, IntegratePartialWindow)
{
    TimeSeries s;
    s.append(0, 60.0);
    s.append(600, 120.0);
    // Window [300, 900): 60 W x 300 s + 120 W x 300 s = 5 + 10 Wh.
    EXPECT_NEAR(s.integrateWh(300, 900), 15.0, 1e-9);
}

TEST(TimeSeries, IntegrateBeforeFirstSampleIsZeroValued)
{
    TimeSeries s;
    s.append(600, 120.0);
    // [0, 600) precedes data: integral 0; [0, 1200): only second half.
    EXPECT_NEAR(s.integrateWh(0, 600), 0.0, 1e-9);
    EXPECT_NEAR(s.integrateWh(0, 1200), 20.0, 1e-9);
}

TEST(TimeSeries, IntegrateEmptyOrInvertedWindow)
{
    TimeSeries s;
    s.append(0, 100.0);
    EXPECT_DOUBLE_EQ(s.integrateWh(100, 100), 0.0);
    EXPECT_DOUBLE_EQ(s.integrateWh(200, 100), 0.0);
}

TEST(TimeSeries, SumRangeCountsDeltasInWindow)
{
    TimeSeries s;
    s.append(0, 1.0);
    s.append(60, 2.0);
    s.append(120, 4.0);
    EXPECT_DOUBLE_EQ(s.sumRange(0, 180), 7.0);
    EXPECT_DOUBLE_EQ(s.sumRange(0, 120), 3.0);  // [0, 120) excludes 120
    EXPECT_DOUBLE_EQ(s.sumRange(60, 121), 6.0);
    EXPECT_DOUBLE_EQ(s.sumRange(200, 300), 0.0);
}

TEST(TimeSeries, MaxRange)
{
    TimeSeries s;
    s.append(0, 5.0);
    s.append(60, 9.0);
    s.append(120, 3.0);
    EXPECT_DOUBLE_EQ(s.maxRange(0, 180), 9.0);
    EXPECT_DOUBLE_EQ(s.maxRange(100, 180), 3.0);
    EXPECT_DOUBLE_EQ(s.maxRange(500, 600), 0.0);
}

TEST(TimeSeries, ReserveIsPureCapacity)
{
    TimeSeries s;
    s.reserve(1000);
    EXPECT_GE(s.capacity(), 1000u);
    EXPECT_TRUE(s.empty());
    s.append(0, 1.0);
    s.append(60, 2.0);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s.integrateWh(0, 3600), 2.0 * 3540.0 / 3600.0 +
                                                 1.0 * 60.0 / 3600.0);
}

/** Every hint value must reproduce the unhinted lower bound. */
TEST(TimeSeries, LowerBoundHintNeverChangesResult)
{
    TimeSeries s;
    for (TimeS t = 0; t < 1200; t += 60)
        s.append(t, static_cast<double>(t));
    // Probe exact hits, midpoints, before-first and past-last times
    // with every possible hint (including one past size()).
    for (TimeS t : {-10L, 0L, 30L, 60L, 61L, 599L, 600L, 1140L, 1200L,
                    5000L}) {
        const std::size_t expect = s.lowerBound(t);
        for (std::size_t hint = 0; hint <= s.size() + 1; ++hint)
            EXPECT_EQ(s.lowerBound(t, hint), expect)
                << "t=" << t << " hint=" << hint;
    }
}

/**
 * The cursored query overloads must be bit-identical to the plain
 * ones for any incoming cursor value (a cursor is only a search
 * hint), and must leave the cursor at the window-start index.
 */
TEST(TimeSeries, CursorQueriesAreBitIdentical)
{
    TimeSeries s;
    for (TimeS t = 0; t < 6000; t += 60)
        s.append(t, static_cast<double>((t / 60) % 13) * 7.5);
    for (TimeS t1 : {0L, 90L, 600L, 3000L, 5940L}) {
        for (TimeS t2 : {t1 + 30, t1 + 60, t1 + 600, TimeS{6000}}) {
            const double plain_wh = s.integrateWh(t1, t2);
            const double plain_sum = s.sumRange(t1, t2);
            for (std::size_t start : {std::size_t{0}, std::size_t{7},
                                      s.size(), s.size() + 5}) {
                Cursor cur{start, 0};
                EXPECT_EQ(s.integrateWh(t1, t2, &cur), plain_wh);
                EXPECT_EQ(cur.index, s.lowerBound(t1));
                cur = Cursor{start, 0};
                EXPECT_EQ(s.sumRange(t1, t2, &cur), plain_sum);
                EXPECT_EQ(cur.index, s.lowerBound(t1));
            }
        }
    }
}

/** The hot ring as explicit samples, read through sample(i). */
std::vector<Sample>
samplesOf(const TimeSeries &s)
{
    std::vector<Sample> out;
    for (std::size_t i = 0; i < s.size(); ++i)
        out.push_back(s.sample(i));
    return out;
}

/**
 * Reference for the pre-optimization integrateWh (it recomputed the
 * start value with a second search); the single-search rewrite must
 * be bit-identical on every window alignment.
 */
double
referenceIntegrateWh(const TimeSeries &s, TimeS t1, TimeS t2)
{
    if (t2 <= t1 || s.empty())
        return 0.0;
    double acc = 0.0;
    TimeS cursor = t1;
    std::size_t idx = s.lowerBound(t1);
    const std::vector<Sample> samples = samplesOf(s);
    // The step value in effect before t1, from a linear walk.
    double current = 0.0;
    for (const Sample &x : samples) {
        if (x.time_s >= t1)
            break;
        current = x.value;
    }
    if (idx < samples.size() && samples[idx].time_s == t1) {
        current = samples[idx].value;
        ++idx;
    }
    while (idx < samples.size() && samples[idx].time_s < t2) {
        acc += current *
               static_cast<double>(samples[idx].time_s - cursor);
        cursor = samples[idx].time_s;
        current = samples[idx].value;
        ++idx;
    }
    acc += current * static_cast<double>(t2 - cursor);
    return acc / kSecondsPerHour;
}

TEST(TimeSeries, IntegrateSingleSearchMatchesReference)
{
    TimeSeries s;
    for (TimeS t = 120; t < 1200; t += 60)
        s.append(t, static_cast<double>((t / 60) % 5) * 3.25);
    // Windows starting before the first sample, exactly on samples,
    // between samples, and beyond the last sample.
    for (TimeS t1 : {0L, 60L, 120L, 150L, 180L, 1140L, 1300L}) {
        for (TimeS t2 : {t1 + 1, t1 + 30, t1 + 60, t1 + 90,
                         TimeS{1500}}) {
            EXPECT_EQ(s.integrateWh(t1, t2),
                      referenceIntegrateWh(s, t1, t2))
                << "t1=" << t1 << " t2=" << t2;
        }
    }
}

/** t0 + i·step, wrapping like the store's axis arithmetic. */
TimeS
axisTime(TimeS t0, std::uint64_t step, std::uint64_t i)
{
    return static_cast<TimeS>(static_cast<std::uint64_t>(t0) + i * step);
}

/**
 * On a cadence series lowerBound() is arithmetic, and after a cadence
 * break a binary search over explicit times: both must equal
 * std::lower_bound over the materialised times, hinted or not, for
 * any (t0, step, n, t) — including axes that start or end within one
 * step of the int64 limits, which the sanitizer build checks for
 * signed overflow.
 */
TEST(TimeSeries, LowerBoundMatchesStdLowerBoundOnAnyAxis)
{
    constexpr TimeS kMin = std::numeric_limits<TimeS>::min();
    constexpr TimeS kMax = std::numeric_limits<TimeS>::max();
    constexpr std::uint64_t kSpan = std::uint64_t{1} << 62;
    Rng rng{2027};
    for (int trial = 0; trial < 3000; ++trial) {
        const auto n = static_cast<std::uint64_t>(rng.uniformInt(1, 200));
        // The whole axis spans at most 2^62, so it fits anywhere.
        const std::uint64_t max_step = n > 1 ? kSpan / (n - 1) : kSpan;
        std::uint64_t step = 0;
        switch (rng.uniformInt(0, 3)) {
        case 0:
            step = static_cast<std::uint64_t>(rng.uniformInt(1, 120));
            break;
        case 1:
            step = 60;
            break;
        default:
            step = static_cast<std::uint64_t>(rng.uniformInt(
                1, static_cast<std::int64_t>(max_step)));
        }
        step = std::min(step, max_step);
        const std::uint64_t span = (n - 1) * step;
        const std::uint64_t r =
            static_cast<std::uint64_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(std::min(step, kSpan))));
        TimeS t0 = 0;
        switch (rng.uniformInt(0, 2)) {
        case 0: // starts within one step of the minimum
            t0 = axisTime(kMin, 1, r);
            break;
        case 1: // ends within one step of the maximum
            t0 = axisTime(kMax, 1, -(r + span));
            break;
        default:
            t0 = rng.uniformInt(-(TimeS{1} << 40), TimeS{1} << 40);
        }

        TimeSeries s;
        std::vector<TimeS> times;
        for (std::uint64_t i = 0; i < n; ++i) {
            times.push_back(axisTime(t0, step, i));
            s.append(times.back(), static_cast<double>(i));
        }
        // Half the series break their cadence once at the end: a
        // repeated time, so every time stays inside the int64 range.
        if (rng.bernoulli(0.5)) {
            times.push_back(times.back());
            s.append(times.back(), -1.0);
        }
        ASSERT_EQ(s.size(), times.size());
        for (std::size_t i = 0; i < times.size(); ++i)
            ASSERT_EQ(s.sample(i).time_s, times[i]) << "trial " << trial;

        std::vector<TimeS> probes = {kMin, kMax, t0, times.back()};
        for (int k = 0; k < 12; ++k) {
            const TimeS at = times[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(n) - 1))];
            probes.push_back(at);
            probes.push_back(axisTime(
                at, 1,
                static_cast<std::uint64_t>(rng.uniformInt(-1, 1))));
            probes.push_back(rng.uniformInt(kMin, kMax));
        }
        for (TimeS t : probes) {
            const std::size_t expect = static_cast<std::size_t>(
                std::lower_bound(times.begin(), times.end(), t) -
                times.begin());
            ASSERT_EQ(s.lowerBound(t), expect)
                << "trial " << trial << " t=" << t;
            for (std::size_t hint :
                 {std::size_t{0}, expect, expect + 1, times.size(),
                  times.size() + 7,
                  static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(n))) })
                ASSERT_EQ(s.lowerBound(t, hint), expect)
                    << "trial " << trial << " t=" << t
                    << " hint=" << hint;
        }
    }
}

/**
 * A cadence series stores 8 B a sample, a cadence break adds the
 * explicit times (8 B more a sample, plus that column's header), and
 * appends into a reserved series allocate nothing, either side of the
 * break.
 */
TEST(TimeSeries, CadenceSeriesCostsOneValueASample)
{
    constexpr std::size_t n = 1024;
    TimeSeries s;
    s.reserve(n);
    ASSERT_EQ(s.capacity(), n);
    const std::int64_t before = g_news.load();
    for (std::size_t i = 0; i < n / 2; ++i)
        s.append(-7200 + 60 * static_cast<TimeS>(i),
                 0.5 * static_cast<double>(i));
    EXPECT_EQ(g_news.load(), before);
    EXPECT_EQ(s.memoryBytes(), sizeof(TimeSeries) + n * sizeof(double));

    s.append(s.sample(s.size() - 1).time_s + 61, 1.0); // jitter
    const std::int64_t after_break = g_news.load();
    for (std::size_t i = s.size(); i < n; ++i)
        s.append(s.sample(s.size() - 1).time_s + 60, 2.0);
    EXPECT_EQ(g_news.load(), after_break);
    EXPECT_EQ(s.memoryBytes(), sizeof(TimeSeries) +
                                   n * (sizeof(double) + sizeof(TimeS)) +
                                   sizeof(std::vector<TimeS>));
}

/**
 * The ecovisor interns 8 series per app whether or not it records
 * telemetry, so an unwritten series costs its object alone: the value
 * store and its axis fit in 304 B, 8 B less than a (time, value)
 * vector with 64-bit ring indices took.
 */
TEST(TimeSeries, UnwrittenSeriesCostsAtMost304Bytes)
{
    EXPECT_LE(sizeof(TimeSeries), 304u);
}

/**
 * Property: integrating over adjacent windows is additive — the
 * telemetry invariant the Table 2 interval queries rely on.
 */
class IntegralAdditivity : public ::testing::TestWithParam<TimeS>
{
};

TEST_P(IntegralAdditivity, SplitWindow)
{
    TimeSeries s;
    for (TimeS t = 0; t < 3600; t += 60)
        s.append(t, static_cast<double>((t / 60) % 7) * 10.0);
    TimeS split = GetParam();
    double whole = s.integrateWh(0, 3600);
    double parts = s.integrateWh(0, split) + s.integrateWh(split, 3600);
    EXPECT_NEAR(whole, parts, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IntegralAdditivity,
                         ::testing::Values(1, 59, 60, 61, 1800, 3599));

} // namespace
} // namespace ecov::ts
