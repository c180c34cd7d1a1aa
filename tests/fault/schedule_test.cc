/**
 * @file
 * FaultSchedule: event validation, the per-tick fold, window
 * visitation, and the seeded storm generator's determinism.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/injector.h"
#include "fault/schedule.h"
#include "util/logging.h"

namespace ecov::fault {
namespace {

TEST(FaultScheduleAdd, RejectsEmptyWindowForWindowedKinds)
{
    FaultSchedule s;
    EXPECT_THROW(s.add({FaultKind::GridOutage, 100, 100, 0.0,
                        kAllTargets}),
                 FatalError);
    EXPECT_THROW(s.add({FaultKind::SensorBlackout, 200, 100, 0.0,
                        kAllTargets}),
                 FatalError);
    // TransportClose is instantaneous: start == end is its shape.
    EXPECT_NO_THROW(
        s.add({FaultKind::TransportClose, 100, 100, 2.0, 0}));
}

TEST(FaultScheduleAdd, RejectsOutOfRangeMagnitudes)
{
    FaultSchedule s;
    EXPECT_THROW(
        s.add({FaultKind::SolarDerate, 0, 60, 1.5, kAllTargets}),
        FatalError);
    EXPECT_THROW(s.add({FaultKind::BatteryCapacityFade, 0, 60, -0.1,
                        kAllTargets}),
                 FatalError);
    EXPECT_NO_THROW(
        s.add({FaultKind::SolarDerate, 0, 60, 0.5, kAllTargets}));
}

TEST(FaultScheduleFold, WindowsAreHalfOpen)
{
    FaultSchedule s;
    s.add({FaultKind::GridOutage, 60, 180, 0.0, kAllTargets});
    EXPECT_FALSE(s.energyAt(0).grid_out);
    EXPECT_TRUE(s.energyAt(60).grid_out);
    EXPECT_TRUE(s.energyAt(179).grid_out);
    EXPECT_FALSE(s.energyAt(180).grid_out);
}

TEST(FaultScheduleFold, DeratesMultiplyAndDropoutZeroes)
{
    FaultSchedule s;
    s.add({FaultKind::SolarDerate, 0, 100, 0.5, kAllTargets});
    s.add({FaultKind::SolarDerate, 0, 100, 0.4, kAllTargets});
    EXPECT_DOUBLE_EQ(s.energyAt(50).solar_derate, 0.2);

    s.add({FaultKind::SolarDropout, 0, 100, 0.0, kAllTargets});
    EXPECT_DOUBLE_EQ(s.energyAt(50).solar_derate, 0.0);
}

TEST(FaultScheduleFold, CapacityFadeTakesTightestFactor)
{
    FaultSchedule s;
    s.add({FaultKind::BatteryCapacityFade, 0, 100, 0.9, kAllTargets});
    s.add({FaultKind::BatteryCapacityFade, 0, 100, 0.7, kAllTargets});
    EXPECT_DOUBLE_EQ(s.energyAt(10).battery_capacity_factor, 0.7);
    EXPECT_DOUBLE_EQ(s.energyAt(100).battery_capacity_factor, 1.0);
}

TEST(FaultScheduleFold, FlagsOrTogetherAndAnyReflectsThem)
{
    FaultSchedule s;
    s.add({FaultKind::BatteryOffline, 0, 50, 0.0, kAllTargets});
    s.add({FaultKind::SensorBlackout, 25, 75, 0.0, kAllTargets});
    const core::EnergyFaults at30 = s.energyAt(30);
    EXPECT_TRUE(at30.battery_offline);
    EXPECT_TRUE(at30.sensor_blackout);
    EXPECT_FALSE(at30.grid_out);
    EXPECT_TRUE(at30.any());
    EXPECT_FALSE(s.energyAt(100).any());
}

TEST(FaultScheduleFold, TransportEventsNeverAffectEnergy)
{
    FaultSchedule s;
    s.add({FaultKind::TransportClose, 10, 10, 3.0, 4});
    EXPECT_FALSE(s.energyAt(10).any());
}

TEST(FaultScheduleVisit, TransportClosesVisitedByWindow)
{
    FaultSchedule s;
    s.add({FaultKind::TransportClose, 60, 60, 1.0, 0});
    s.add({FaultKind::TransportClose, 120, 120, 2.0, 1});
    s.add({FaultKind::TransportClose, 60, 60, 3.0, 2});

    std::vector<std::uint32_t> seen;
    s.forEachTransportCloseIn(60, 120, [&](const FaultEvent &e) {
        seen.push_back(e.target);
    });
    // Insertion order within the [60, 120) window; the tick-120 event
    // belongs to the next window.
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], 0u);
    EXPECT_EQ(seen[1], 2u);
}

TEST(FaultStorm, SameSeedSameSchedule)
{
    const auto a = FaultSchedule::storm(42, 3600, 60);
    const auto b = FaultSchedule::storm(42, 3600, 60);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].start_s, b.events()[i].start_s);
        EXPECT_EQ(a.events()[i].end_s, b.events()[i].end_s);
        EXPECT_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
        EXPECT_EQ(a.events()[i].target, b.events()[i].target);
    }
}

TEST(FaultStorm, DifferentSeedsDiffer)
{
    const auto a = FaultSchedule::storm(1, 7200, 60);
    const auto b = FaultSchedule::storm(2, 7200, 60);
    ASSERT_EQ(a.size(), b.size()); // same profile -> same event count
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a.events()[i].start_s != b.events()[i].start_s ||
            a.events()[i].end_s != b.events()[i].end_s)
            any_diff = true;
    EXPECT_TRUE(any_diff);
}

TEST(FaultStorm, EventsAlignedToTicksAndInHorizon)
{
    constexpr TimeS kHorizon = 7200, kTick = 60;
    StormProfile profile;
    profile.tenants = 8;
    const auto s = FaultSchedule::storm(7, kHorizon, kTick, profile);
    EXPECT_FALSE(s.empty());
    for (const FaultEvent &e : s.events()) {
        EXPECT_EQ(e.start_s % kTick, 0) << static_cast<int>(e.kind);
        EXPECT_GE(e.start_s, 0);
        EXPECT_LE(e.end_s, kHorizon);
        if (e.kind == FaultKind::SolarDerate ||
            e.kind == FaultKind::BatteryCapacityFade) {
            EXPECT_GE(e.magnitude, 0.0);
            EXPECT_LE(e.magnitude, 1.0);
        }
        if (e.kind == FaultKind::TransportClose) {
            EXPECT_LT(e.target, profile.tenants);
            EXPECT_GE(e.magnitude, 1.0); // down-ticks
        }
    }
}

TEST(FaultStorm, TinyHorizonStillValid)
{
    // Degenerate horizons must not trip the Rng's lo <= hi contract
    // or the add() validators.
    const auto s = FaultSchedule::storm(3, 60, 60);
    for (const FaultEvent &e : s.events()) {
        if (e.kind != FaultKind::TransportClose)
            EXPECT_LT(e.start_s, e.end_s);
    }
}

TEST(FaultStorm, RejectsNonPositiveHorizonOrTick)
{
    EXPECT_THROW(FaultSchedule::storm(1, 0, 60), FatalError);
    EXPECT_THROW(FaultSchedule::storm(1, 3600, 0), FatalError);
}

} // namespace
} // namespace ecov::fault
