/**
 * @file
 * API handle semantics: registration-order indices, stability
 * across later tryAddApp calls regardless of name ordering, and the
 * behaviour of invalid handles on every handle-taking entry point.
 */

#include <gtest/gtest.h>

#include "api/handle.h"
#include "common/rig.h"
#include "core/ecovisor.h"

namespace ecov::core {
namespace {

using testutil::Rig;
using testutil::appShare;

TEST(AppHandle, DefaultIsInvalid)
{
    api::AppHandle h;
    EXPECT_FALSE(h.valid());
    EXPECT_EQ(h.index(), -1);
    EXPECT_EQ(h, api::AppHandle());
    EXPECT_NE(h, api::AppHandle(0));
}

TEST(AppHandle, RegistrationOrderAssignsIndices)
{
    Rig rig;
    // Register in reverse-alphabetical order: handle indices must
    // follow *registration* order even though the deterministic
    // iteration (appNames) sorts by name.
    auto z = rig.eco.tryAddApp("zeta", appShare(0.25, 100.0)).value();
    auto a = rig.eco.tryAddApp("alpha", appShare(0.75, 300.0)).value();
    EXPECT_EQ(z.index(), 0);
    EXPECT_EQ(a.index(), 1);
    EXPECT_EQ(rig.eco.appCount(), 2u);

    auto names = rig.eco.appNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");

    // The handle routes to the right app's state, not the sorted slot.
    EXPECT_EQ(rig.eco.appName(z).value(), "zeta");
    EXPECT_EQ(rig.eco.appName(a).value(), "alpha");
    rig.eco.settleTick(7 * 3600, 60); // solar is 200 W at 7 h
    EXPECT_DOUBLE_EQ(rig.eco.getSolarPower(z).value(), 50.0);
    EXPECT_DOUBLE_EQ(rig.eco.getSolarPower(a).value(), 150.0);
}

TEST(AppHandle, StableAcrossLaterRegistrations)
{
    Rig rig;
    auto first = rig.eco.tryAddApp("mid", appShare(0.2, 100.0)).value();
    const auto before = rig.eco.findApp("mid").value();
    // Names sorting both before and after "mid" must not move it.
    rig.eco.tryAddApp("aaa", appShare(0.2, 100.0)).value();
    rig.eco.tryAddApp("zzz", appShare(0.2, 100.0)).value();
    EXPECT_EQ(rig.eco.findApp("mid").value(), before);
    EXPECT_EQ(before, first);
    EXPECT_EQ(rig.eco.appName(first).value(), "mid");
}

TEST(AppHandle, FindAppMatchesTryAddAppHandle)
{
    Rig rig;
    auto h = rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).value();
    EXPECT_EQ(rig.eco.findApp("a").value(), h);
    EXPECT_FALSE(rig.eco.findApp("b").ok());
    EXPECT_EQ(rig.eco.findApp("b").code(), api::ErrorCode::UnknownApp);
}

TEST(AppHandle, VesByHandle)
{
    Rig rig;
    auto h = rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).value();
    ASSERT_NE(rig.eco.ves(h), nullptr);
    EXPECT_EQ(rig.eco.ves(h)->app(), "a");
    EXPECT_EQ(rig.eco.ves(api::AppHandle()), nullptr);
    EXPECT_EQ(rig.eco.ves(api::AppHandle(7)), nullptr);
}

TEST(AppHandle, InvalidHandleRejectedEverywhere)
{
    Rig rig;
    rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).value();
    const api::AppHandle bad_handles[] = {api::AppHandle(),
                                          api::AppHandle(1),
                                          api::AppHandle(-7)};
    for (api::AppHandle bad : bad_handles) {
        EXPECT_EQ(rig.eco.getSolarPower(bad).code(),
                  api::ErrorCode::InvalidHandle);
        EXPECT_EQ(rig.eco.getGridPower(bad).code(),
                  api::ErrorCode::InvalidHandle);
        EXPECT_EQ(rig.eco.getBatteryDischargeRate(bad).code(),
                  api::ErrorCode::InvalidHandle);
        EXPECT_EQ(rig.eco.getBatteryChargeLevel(bad).code(),
                  api::ErrorCode::InvalidHandle);
        EXPECT_EQ(rig.eco.getEnergySnapshot(bad).code(),
                  api::ErrorCode::InvalidHandle);
        EXPECT_EQ(rig.eco.appName(bad).code(),
                  api::ErrorCode::InvalidHandle);
        EXPECT_EQ(rig.eco.setBatteryChargeRate(bad, 1.0).code(),
                  api::ErrorCode::InvalidHandle);
        EXPECT_EQ(rig.eco.setBatteryMaxDischarge(bad, 1.0).code(),
                  api::ErrorCode::InvalidHandle);
        EXPECT_EQ(rig.eco
                      .registerTickCallback(bad, [](TimeS, TimeS) {})
                      .code(),
                  api::ErrorCode::InvalidHandle);
    }
}

TEST(ContainerHandle, WrapsSlabRefs)
{
    Rig rig;
    api::ContainerHandle none;
    EXPECT_FALSE(none.valid());
    EXPECT_FALSE(api::handleOf(rig.cluster, 42).valid());

    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    api::ContainerHandle c = api::handleOf(rig.cluster, *id);
    EXPECT_TRUE(c.valid());
    EXPECT_EQ(rig.cluster.idOf(c.ref()), *id);
    EXPECT_NE(c, none);

    auto ids = std::vector<cop::ContainerId>{*id};
    auto wrapped = api::wrapContainers(rig.cluster, ids);
    ASSERT_EQ(wrapped.size(), 1u);
    EXPECT_EQ(wrapped[0], c);

    // Destroying the container makes the handle stale, not fatal:
    // the recycled slot's new incarnation never aliases it.
    rig.cluster.destroyContainer(*id);
    EXPECT_FALSE(rig.cluster.live(c.ref()));
    auto id2 = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id2);
    EXPECT_FALSE(rig.cluster.live(c.ref()));
    EXPECT_NE(api::handleOf(rig.cluster, *id2), c);
}

} // namespace
} // namespace ecov::core
