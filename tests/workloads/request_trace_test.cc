/**
 * @file
 * Request trace generator tests.
 */

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/stats.h"
#include "workloads/request_trace.h"

namespace ecov::wl {
namespace {

TEST(RequestTrace, LookupAndWrap)
{
    RequestTrace t({{0, 10.0}, {600, 20.0}}, 1200);
    EXPECT_DOUBLE_EQ(t.rateAt(0), 10.0);
    EXPECT_DOUBLE_EQ(t.rateAt(700), 20.0);
    EXPECT_DOUBLE_EQ(t.rateAt(1200), 10.0);
    EXPECT_DOUBLE_EQ(t.rateAt(-500), 20.0);
}

TEST(RequestTrace, RejectsInvalid)
{
    EXPECT_THROW(RequestTrace({}, 100), FatalError);
    EXPECT_THROW(RequestTrace({{0, 1.0}, {0, 2.0}}, 100), FatalError);
    EXPECT_THROW(RequestTrace({{0, 1.0}}, 0), FatalError);
    EXPECT_THROW(RequestTrace({{500, 1.0}}, 100), FatalError);
}

TEST(MakeRequestTrace, DiurnalPeakNearConfiguredHour)
{
    RequestTraceConfig cfg;
    cfg.mean_rps = 100.0;
    cfg.diurnal_amp = 50.0;
    cfg.peak_hour = 14.0;
    cfg.noise_stddev = 0.0;
    cfg.spike_prob = 0.0;
    cfg.days = 1;
    auto t = makeRequestTrace(cfg, 1);
    double at_peak = t.rateAt(14 * 3600);
    double at_trough = t.rateAt(2 * 3600);
    EXPECT_GT(at_peak, at_trough);
    EXPECT_NEAR(at_peak, 150.0, 1.0);
}

TEST(MakeRequestTrace, RatesArePositive)
{
    auto t = makeRequestTrace(webApp2Workload(), 3);
    for (const auto &p : t.points())
        EXPECT_GE(p.rps, 1.0);
}

TEST(MakeRequestTrace, RampGrowsLoad)
{
    RequestTraceConfig cfg;
    cfg.noise_stddev = 0.0;
    cfg.spike_prob = 0.0;
    cfg.ramp_fraction = 0.5;
    cfg.days = 2;
    auto t = makeRequestTrace(cfg, 1);
    // Same hour on day 2 exceeds day 1 (mean grew).
    EXPECT_GT(t.rateAt(24 * 3600 + 12 * 3600), t.rateAt(12 * 3600));
}

TEST(MakeRequestTrace, Deterministic)
{
    auto a = makeRequestTrace(webApp1Workload(), 9);
    auto b = makeRequestTrace(webApp1Workload(), 9);
    ASSERT_EQ(a.points().size(), b.points().size());
    for (std::size_t i = 0; i < a.points().size(); i += 10)
        EXPECT_DOUBLE_EQ(a.points()[i].rps, b.points()[i].rps);
}

TEST(MakeRequestTrace, SpikesRaiseTail)
{
    RequestTraceConfig no_spikes;
    no_spikes.spike_prob = 0.0;
    no_spikes.noise_stddev = 0.0;
    RequestTraceConfig spikes = no_spikes;
    spikes.spike_prob = 0.05;
    spikes.spike_mult = 2.0;
    auto a = makeRequestTrace(no_spikes, 3);
    auto b = makeRequestTrace(spikes, 3);
    std::vector<double> va, vb;
    for (const auto &p : a.points())
        va.push_back(p.rps);
    for (const auto &p : b.points())
        vb.push_back(p.rps);
    EXPECT_GT(percentileOf(vb, 99.5), percentileOf(va, 99.5));
}

TEST(MakeRequestTrace, PaperWorkloadsDiffer)
{
    auto a = webApp1Workload();
    auto b = webApp2Workload();
    EXPECT_NE(a.peak_hour, b.peak_hour);
    auto ta = makeRequestTrace(a, 1);
    auto tb = makeRequestTrace(b, 2);
    bool differs = false;
    for (TimeS t = 0; t < 24 * 3600; t += 3600)
        differs |= ta.rateAt(t) != tb.rateAt(t);
    EXPECT_TRUE(differs);
}

TEST(MakeRequestTrace, RejectsBadConfig)
{
    RequestTraceConfig cfg;
    cfg.mean_rps = 0.0;
    EXPECT_THROW(makeRequestTrace(cfg, 1), FatalError);
    cfg = RequestTraceConfig{};
    cfg.days = 0;
    EXPECT_THROW(makeRequestTrace(cfg, 1), FatalError);
}

} // namespace
} // namespace ecov::wl
