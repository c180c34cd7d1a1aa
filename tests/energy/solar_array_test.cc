/**
 * @file
 * Solar array and irradiance generator tests.
 */

#include <gtest/gtest.h>

#include "energy/solar_array.h"
#include "util/logging.h"

namespace ecov::energy {
namespace {

TEST(SolarArray, PiecewiseLookupAndWrap)
{
    SolarArray s({{0, 0.0}, {600, 100.0}, {1200, 50.0}}, 1800);
    EXPECT_DOUBLE_EQ(s.powerAt(0), 0.0);
    EXPECT_DOUBLE_EQ(s.powerAt(700), 100.0);
    EXPECT_DOUBLE_EQ(s.powerAt(1300), 50.0);
    // Wraps modulo the period.
    EXPECT_DOUBLE_EQ(s.powerAt(1800), 0.0);
    EXPECT_DOUBLE_EQ(s.powerAt(1800 + 700), 100.0);
    EXPECT_DOUBLE_EQ(s.powerAt(-1100), 100.0);
}

TEST(SolarArray, ScaleMultipliesOutput)
{
    SolarArray s({{0, 100.0}}, 3600);
    s.setScale(0.5);
    EXPECT_DOUBLE_EQ(s.powerAt(10), 50.0);
    s.setScale(2.0);
    EXPECT_DOUBLE_EQ(s.powerAt(10), 200.0);
}

TEST(SolarArray, RejectsInvalidInput)
{
    EXPECT_THROW(SolarArray({}, 100), FatalError);
    EXPECT_THROW(SolarArray({{0, -1.0}}, 100), FatalError);
    EXPECT_THROW(SolarArray({{0, 1.0}, {0, 2.0}}, 100), FatalError);
    EXPECT_THROW(SolarArray({{0, 1.0}}, 0), FatalError);
    EXPECT_THROW(SolarArray({{200, 1.0}}, 100), FatalError);
    SolarArray ok({{0, 1.0}}, 100);
    EXPECT_THROW(ok.setScale(-1.0), FatalError);
}

TEST(MakeSolarTrace, NightIsDark)
{
    SolarTraceConfig cfg;
    cfg.days = 1;
    auto s = makeSolarTrace(cfg, 1);
    EXPECT_DOUBLE_EQ(s.powerAt(0), 0.0);          // midnight
    EXPECT_DOUBLE_EQ(s.powerAt(3 * 3600), 0.0);   // 3 am
    EXPECT_DOUBLE_EQ(s.powerAt(22 * 3600), 0.0);  // 10 pm
}

TEST(MakeSolarTrace, MiddayIsBright)
{
    SolarTraceConfig cfg;
    cfg.peak_w = 400.0;
    cfg.cloudiness = 0.0;
    auto s = makeSolarTrace(cfg, 1);
    double noon = s.powerAt(12 * 3600);
    EXPECT_GT(noon, 350.0);
    EXPECT_LE(noon, 400.0 + 1e-9);
    // Morning and afternoon are lower than noon.
    EXPECT_LT(s.powerAt(8 * 3600), noon);
    EXPECT_LT(s.powerAt(16 * 3600), noon);
}

TEST(MakeSolarTrace, CloudinessReducesEnergy)
{
    SolarTraceConfig clear;
    clear.cloudiness = 0.0;
    SolarTraceConfig cloudy;
    cloudy.cloudiness = 0.8;
    auto a = makeSolarTrace(clear, 5);
    auto b = makeSolarTrace(cloudy, 5);
    double ea = 0.0, eb = 0.0;
    for (TimeS t = 0; t < 24 * 3600; t += 60) {
        ea += a.powerAt(t);
        eb += b.powerAt(t);
    }
    EXPECT_LT(eb, ea);
    EXPECT_GT(eb, 0.0);
}

TEST(MakeSolarTrace, Deterministic)
{
    SolarTraceConfig cfg;
    cfg.cloudiness = 0.5;
    auto a = makeSolarTrace(cfg, 42);
    auto b = makeSolarTrace(cfg, 42);
    for (TimeS t = 0; t < 24 * 3600; t += 300)
        EXPECT_DOUBLE_EQ(a.powerAt(t), b.powerAt(t));
}

TEST(MakeSolarTrace, RejectsBadConfig)
{
    SolarTraceConfig cfg;
    cfg.peak_w = -1.0;
    EXPECT_THROW(makeSolarTrace(cfg, 1), FatalError);
    cfg = SolarTraceConfig{};
    cfg.sunset_hour = cfg.sunrise_hour;
    EXPECT_THROW(makeSolarTrace(cfg, 1), FatalError);
    cfg = SolarTraceConfig{};
    cfg.days = 0;
    EXPECT_THROW(makeSolarTrace(cfg, 1), FatalError);
}

/** Property: output is never negative nor above peak, any seed. */
class SolarBounds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SolarBounds, WithinPhysicalRange)
{
    SolarTraceConfig cfg;
    cfg.peak_w = 400.0;
    cfg.cloudiness = 0.6;
    cfg.days = 2;
    auto s = makeSolarTrace(cfg, GetParam());
    for (TimeS t = 0; t < 2 * 24 * 3600; t += 120) {
        EXPECT_GE(s.powerAt(t), 0.0);
        EXPECT_LE(s.powerAt(t), 400.0 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolarBounds,
                         ::testing::Values(1, 7, 19, 101, 9999));

} // namespace
} // namespace ecov::energy
