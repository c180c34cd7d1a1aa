/**
 * @file
 * Grid connection tests: metering and carbon attribution.
 */

#include <gtest/gtest.h>

#include "carbon/carbon_signal.h"
#include "energy/grid_connection.h"
#include "util/logging.h"

namespace ecov::energy {
namespace {

carbon::TraceCarbonSignal
signal()
{
    return carbon::TraceCarbonSignal({{0, 100.0}, {3600, 300.0}});
}

TEST(GridConnection, UnlimitedSupplyByDefault)
{
    auto sig = signal();
    GridConnection g(&sig);
    EXPECT_DOUBLE_EQ(g.draw(12345.0, 0, 60), 12345.0);
}

TEST(GridConnection, FeederLimitClamps)
{
    auto sig = signal();
    GridConnection g(&sig, 1000.0);
    EXPECT_DOUBLE_EQ(g.draw(5000.0, 0, 60), 1000.0);
    EXPECT_DOUBLE_EQ(g.draw(500.0, 0, 60), 500.0);
}

TEST(GridConnection, EnergyMetering)
{
    auto sig = signal();
    GridConnection g(&sig);
    g.draw(100.0, 0, 3600); // 100 Wh
    g.draw(200.0, 3600, 1800); // 100 Wh
    EXPECT_NEAR(g.totalEnergyWh(), 200.0, 1e-9);
}

TEST(GridConnection, CarbonFollowsIntensityAtDrawTime)
{
    auto sig = signal();
    GridConnection g(&sig);
    g.draw(1000.0, 0, 3600);    // 1 kWh at 100 g/kWh = 100 g
    g.draw(1000.0, 3600, 3600); // 1 kWh at 300 g/kWh = 300 g
    EXPECT_NEAR(g.totalCarbonG(), 400.0, 1e-9);
}

TEST(GridConnection, CarbonIntensityPassThrough)
{
    auto sig = signal();
    GridConnection g(&sig);
    EXPECT_DOUBLE_EQ(g.carbonIntensityAt(0), 100.0);
    EXPECT_DOUBLE_EQ(g.carbonIntensityAt(4000), 300.0);
}

TEST(GridConnection, ZeroDurationDrawsNothing)
{
    auto sig = signal();
    GridConnection g(&sig);
    EXPECT_DOUBLE_EQ(g.draw(100.0, 0, 0), 0.0);
    EXPECT_DOUBLE_EQ(g.totalEnergyWh(), 0.0);
}

TEST(GridConnection, InvalidUseIsFatal)
{
    auto sig = signal();
    EXPECT_THROW(GridConnection(nullptr), FatalError);
    EXPECT_THROW(GridConnection(&sig, -1.0), FatalError);
    GridConnection g(&sig);
    EXPECT_THROW(g.draw(-5.0, 0, 60), FatalError);
}

} // namespace
} // namespace ecov::energy
