/**
 * @file
 * Geo coordinator tests: cross-site queries over independent
 * ecovisors.
 */

#include <gtest/gtest.h>

#include <memory>

#include "carbon/carbon_signal.h"
#include "geo/geo_coordinator.h"
#include "util/logging.h"

namespace ecov::geo {
namespace {

/** One self-contained site with its own signal/grid/cluster/eco. */
struct TestSite
{
    carbon::TraceCarbonSignal signal;
    energy::GridConnection grid;
    energy::SolarArray solar;
    cop::Cluster cluster;
    energy::PhysicalEnergySystem phys;
    core::Ecovisor eco;

    TestSite(double intensity, double solar_w, double battery_soc)
        : signal({{0, intensity}}), grid(&signal),
          solar({{0, solar_w}}, 24 * 3600),
          cluster(4, power::ServerPowerConfig{4, 1.35, 5.0, 0.0}),
          phys(&grid, &solar, energy::BatteryConfig{}),
          eco(&cluster, &phys)
    {
        core::AppShareConfig share;
        share.solar_fraction = 1.0;
        energy::BatteryConfig b;
        b.capacity_wh = 100.0;
        b.max_charge_w = 25.0;
        b.max_discharge_w = 20.0;
        b.initial_soc = battery_soc;
        share.battery = b;
        job = eco.tryAddApp("job", share).value();
    }

    api::AppHandle job;
};

struct Fleet
{
    // (intensity g/kWh, solar W, battery SOC); Ontario and Uruguay
    // start at the 30 % floor ("empty"), so only California has
    // zero-carbon supply.
    TestSite ontario{30.0, 0.0, 0.30};
    TestSite california{250.0, 50.0, 0.90};
    TestSite uruguay{80.0, 0.0, 0.30};

    GeoCoordinator
    coordinator()
    {
        return GeoCoordinator({{"ontario", &ontario.eco, "job"},
                               {"california", &california.eco, "job"},
                               {"uruguay", &uruguay.eco, "job"}});
    }
};

TEST(GeoCoordinator, SiteRegistry)
{
    Fleet f;
    auto g = f.coordinator();
    EXPECT_EQ(g.siteCount(), 3);
    EXPECT_EQ(g.site(0).name, "ontario");
    EXPECT_THROW(g.site(3), FatalError);
    EXPECT_THROW(g.site(-1), FatalError);
}

TEST(GeoCoordinator, LowestCarbonSite)
{
    Fleet f;
    auto g = f.coordinator();
    EXPECT_EQ(g.lowestCarbonSite(), 0); // ontario at 30 g/kWh
    EXPECT_DOUBLE_EQ(g.carbonAt(0), 30.0);
    EXPECT_DOUBLE_EQ(g.carbonAt(1), 250.0);
}

TEST(GeoCoordinator, HighestSolarSite)
{
    Fleet f;
    auto g = f.coordinator();
    EXPECT_EQ(g.highestSolarSite(), 1); // california at 50 W
    EXPECT_DOUBLE_EQ(g.solarAt(1), 50.0);
}

TEST(GeoCoordinator, FullestBatterySite)
{
    Fleet f;
    auto g = f.coordinator();
    EXPECT_EQ(g.fullestBatterySite(), 1); // 90 % SOC
}

TEST(GeoCoordinator, CheapestEffectiveSiteUsesZeroCarbonSupply)
{
    Fleet f;
    auto g = f.coordinator();
    // At a 5 W demand, California's 50 W of solar covers everything:
    // effective intensity 0 beats even Ontario's 30 g/kWh grid.
    EXPECT_EQ(g.cheapestEffectiveSite(5.0), 1);
    // At a 1 kW demand, solar coverage is negligible everywhere;
    // Ontario's clean grid wins.
    EXPECT_EQ(g.cheapestEffectiveSite(1000.0), 0);
}

TEST(GeoCoordinator, AggregateMetersSumOverSites)
{
    Fleet f;
    auto g = f.coordinator();
    // Drive load at two sites and settle.
    auto id1 = f.ontario.cluster.createContainer("job", 4.0);
    auto id2 = f.uruguay.cluster.createContainer("job", 4.0);
    ASSERT_TRUE(id1 && id2);
    f.ontario.cluster.setDemand(*id1, 1.0);
    f.uruguay.cluster.setDemand(*id2, 1.0);
    ASSERT_TRUE(f.ontario.eco.setBatteryMaxDischarge(f.ontario.job, 0.0).ok());
    ASSERT_TRUE(f.uruguay.eco.setBatteryMaxDischarge(f.uruguay.job, 0.0).ok());
    f.ontario.eco.settleTick(0, 3600);
    f.uruguay.eco.settleTick(0, 3600);
    // 5 Wh each; carbon = 5/1000*30 + 5/1000*80 = 0.15 + 0.40.
    EXPECT_NEAR(g.totalEnergyWh(), 10.0, 1e-9);
    EXPECT_NEAR(g.totalCarbonG(), 0.55, 1e-9);
}

TEST(GeoCoordinator, InvalidConstructionFatal)
{
    Fleet f;
    EXPECT_THROW(GeoCoordinator({}), FatalError);
    EXPECT_THROW(GeoCoordinator({{"x", nullptr, "job"}}), FatalError);
    EXPECT_THROW(
        GeoCoordinator({{"x", &f.ontario.eco, "unknown-app"}}),
        FatalError);
}

} // namespace
} // namespace ecov::geo
