/**
 * @file
 * API error model: every Status error path returns a structured
 * code (never throws, never aborts), and the all-or-nothing CapBatch
 * validation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "api/status.h"
#include "common/rig.h"
#include "core/ecovisor.h"
#include "util/logging.h"

namespace ecov::core {
namespace {

using api::ErrorCode;
using testutil::Rig;
using testutil::appShare;

TEST(Status, BasicsAndBridge)
{
    api::Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.code(), ErrorCode::Ok);
    EXPECT_TRUE(ok.message().empty());
    EXPECT_NO_THROW(ok.orFatal());

    auto err = api::Status::error(ErrorCode::UnknownApp, "nope");
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.message(), "nope");
    EXPECT_THROW(err.orFatal(), FatalError);

    api::Result<double> r(3.5);
    EXPECT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.value(), 3.5);
    api::Result<double> bad(err);
    EXPECT_FALSE(bad.ok());
    EXPECT_DOUBLE_EQ(bad.valueOr(-1.0), -1.0);
    EXPECT_THROW(bad.value(), FatalError);
}

TEST(Status, ErrorCodeNames)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidArgument),
                 "invalid_argument");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidHandle),
                 "invalid_handle");
    EXPECT_STREQ(errorCodeName(ErrorCode::UnknownApp), "unknown_app");
    EXPECT_STREQ(errorCodeName(ErrorCode::DuplicateApp),
                 "duplicate_app");
    EXPECT_STREQ(errorCodeName(ErrorCode::UnknownContainer),
                 "unknown_container");
    EXPECT_STREQ(errorCodeName(ErrorCode::ShareViolation),
                 "share_violation");
    EXPECT_STREQ(errorCodeName(ErrorCode::NoBattery), "no_battery");
    EXPECT_STREQ(errorCodeName(ErrorCode::NoSolar), "no_solar");
    EXPECT_STREQ(errorCodeName(ErrorCode::ResourceExhausted),
                 "resource_exhausted");
    EXPECT_STREQ(errorCodeName(ErrorCode::Unavailable), "unavailable");
}

TEST(Status, AdmissionAndDrainCodes)
{
    // The ecovisord admission/shutdown codes behave like every other
    // structured error: message preserved, fatal bridge intact, and a
    // Result built from one carries the code through.
    auto full = api::Status::error(ErrorCode::ResourceExhausted,
                                   "inflight budget exceeded");
    EXPECT_FALSE(full.ok());
    EXPECT_EQ(full.code(), ErrorCode::ResourceExhausted);
    EXPECT_EQ(full.message(), "inflight budget exceeded");
    EXPECT_THROW(full.orFatal(), FatalError);

    auto gone = api::Status::error(ErrorCode::Unavailable,
                                   "server draining");
    EXPECT_EQ(gone.code(), ErrorCode::Unavailable);
    EXPECT_EQ(gone.message(), "server draining");

    api::Result<int> r(gone);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::Unavailable);
    EXPECT_EQ(r.status().message(), "server draining");
    EXPECT_EQ(r.valueOr(7), 7);
}

TEST(TryAddApp, RegistrationErrorPaths)
{
    Rig rig;
    EXPECT_EQ(rig.eco.tryAddApp("", appShare(0.1, 10.0)).code(),
              ErrorCode::InvalidArgument);

    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(0.7, 700.0)).ok());
    EXPECT_EQ(rig.eco.tryAddApp("a", appShare(0.0, 10.0)).code(),
              ErrorCode::DuplicateApp);

    // Solar fractions beyond 100 % in aggregate.
    EXPECT_EQ(rig.eco.tryAddApp("b", appShare(0.4, 100.0)).code(),
              ErrorCode::ShareViolation);
    // Battery capacity beyond the 1440 Wh physical bank.
    EXPECT_EQ(rig.eco.tryAddApp("c", appShare(0.1, 1000.0)).code(),
              ErrorCode::ShareViolation);

    // Oversubscribed charge rate with in-range capacity: the physical
    // bank charges at 0.25C (360 W); ask for more.
    AppShareConfig charge_hog;
    energy::BatteryConfig cb;
    cb.capacity_wh = 100.0;
    cb.max_charge_w = 400.0;
    cb.max_discharge_w = 100.0;
    charge_hog.battery = cb;
    EXPECT_EQ(rig.eco.tryAddApp("d", charge_hog).code(),
              ErrorCode::ShareViolation);

    // Oversubscribed discharge rate (physical 1C = 1440 W).
    AppShareConfig discharge_hog;
    energy::BatteryConfig db;
    db.capacity_wh = 100.0;
    db.max_charge_w = 10.0;
    db.max_discharge_w = 2000.0;
    discharge_hog.battery = db;
    EXPECT_EQ(rig.eco.tryAddApp("e", discharge_hog).code(),
              ErrorCode::ShareViolation);

    // Per-app config errors surface as InvalidArgument, not a throw.
    AppShareConfig bad_fraction;
    bad_fraction.solar_fraction = -0.5;
    EXPECT_EQ(rig.eco.tryAddApp("f", bad_fraction).code(),
              ErrorCode::InvalidArgument);
    AppShareConfig bad_grid;
    bad_grid.grid_max_w = -1.0;
    EXPECT_EQ(rig.eco.tryAddApp("g", bad_grid).code(),
              ErrorCode::InvalidArgument);

    // NaN share parameters would defeat every range check and poison
    // aggregate validation for later tenants: rejected up front.
    AppShareConfig nan_solar;
    nan_solar.solar_fraction = std::nan("");
    EXPECT_EQ(rig.eco.tryAddApp("h", nan_solar).code(),
              ErrorCode::InvalidArgument);
    AppShareConfig nan_batt;
    energy::BatteryConfig nb;
    nb.capacity_wh = std::nan("");
    nan_batt.battery = nb;
    EXPECT_EQ(rig.eco.tryAddApp("i", nan_batt).code(),
              ErrorCode::InvalidArgument);

    // Nothing from the failed registrations leaked into the registry.
    EXPECT_EQ(rig.eco.appCount(), 1u);
}

TEST(TryAddApp, SharesWithoutHardware)
{
    carbon::TraceCarbonSignal sig({{0, 100.0}});
    energy::GridConnection grid(&sig);
    cop::Cluster cluster(1, power::ServerPowerConfig{});
    energy::PhysicalEnergySystem phys(&grid, nullptr, std::nullopt);
    Ecovisor eco(&cluster, &phys);

    AppShareConfig solar_share;
    solar_share.solar_fraction = 0.5;
    EXPECT_EQ(eco.tryAddApp("a", solar_share).code(),
              ErrorCode::NoSolar);

    AppShareConfig battery_share;
    battery_share.battery = energy::BatteryConfig{};
    EXPECT_EQ(eco.tryAddApp("b", battery_share).code(),
              ErrorCode::NoBattery);
}

TEST(Setters, StructuredErrors)
{
    Rig rig;
    auto h = rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).value();

    EXPECT_EQ(rig.eco.setBatteryChargeRate(h, -1.0).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(rig.eco.setBatteryMaxDischarge(h, -1.0).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(rig.eco.setBatteryChargeRate(h, std::nan("")).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(rig.eco.setBatteryMaxDischarge(h, std::nan("")).code(),
              ErrorCode::InvalidArgument);
    EXPECT_TRUE(rig.eco.setBatteryChargeRate(h, 10.0).ok());

    EXPECT_EQ(rig.eco
                  .setContainerPowercap(api::handleOf(rig.cluster, 99), 1.0)
                  .code(),
              ErrorCode::UnknownContainer);
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    EXPECT_EQ(rig.eco
                  .setContainerPowercap(api::handleOf(rig.cluster, *id), -1.0)
                  .code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(rig.eco
                  .setContainerPowercap(api::handleOf(rig.cluster, *id),
                                        std::nan(""))
                  .code(),
              ErrorCode::InvalidArgument);
    EXPECT_TRUE(rig.eco
                    .setContainerPowercap(api::handleOf(rig.cluster, *id), 0.5)
                    .ok());
}

TEST(Getters, StructuredErrors)
{
    Rig rig;
    rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).value();
    EXPECT_EQ(rig.eco.getContainerPower(api::handleOf(rig.cluster, 5)).code(),
              ErrorCode::UnknownContainer);
    EXPECT_EQ(rig.eco
                  .getContainerPowercap(api::handleOf(rig.cluster, 5))
                  .code(),
              ErrorCode::UnknownContainer);
    EXPECT_EQ(rig.eco.findApp("nope").code(), ErrorCode::UnknownApp);
    EXPECT_EQ(rig.eco.getSolarPower(api::AppHandle(5)).code(),
              ErrorCode::InvalidHandle);
    EXPECT_EQ(rig.eco.ves(api::AppHandle(5)), nullptr);
}

TEST(RegisterTickCallback, NullCallbackRejected)
{
    Rig rig;
    auto h = rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).value();
    EXPECT_EQ(rig.eco.registerTickCallback(h, nullptr).code(),
              ErrorCode::InvalidArgument);
    EXPECT_TRUE(
        rig.eco.registerTickCallback(h, [](TimeS, TimeS) {}).ok());
}

TEST(RegisterTickCallback, MidDispatchRegistrationIsSafe)
{
    // A callback may register further callbacks (even for its own
    // app) while dispatch is running; the executing callback must
    // survive the growth and the new one joins the same dispatch.
    Rig rig;
    auto h = rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).value();
    int first_calls = 0, late_calls = 0;
    rig.eco
        .registerTickCallback(h,
                              [&, h](TimeS, TimeS) {
                                  if (first_calls++ == 0) {
                                      for (int i = 0; i < 64; ++i)
                                          rig.eco
                                              .registerTickCallback(
                                                  h,
                                                  [&](TimeS, TimeS) {
                                                      ++late_calls;
                                                  })
                                              .orFatal();
                                  }
                              })
        .orFatal();
    rig.eco.dispatchTickCallbacks(0, 60);
    EXPECT_EQ(first_calls, 1);
    EXPECT_EQ(late_calls, 64);
    rig.eco.dispatchTickCallbacks(60, 60);
    EXPECT_EQ(first_calls, 2);
    EXPECT_EQ(late_calls, 128);
}

TEST(CapBatch, RejectedBatchLeavesNoTrace)
{
    Rig rig;
    rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).value();
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0);

    api::CapBatch batch;
    batch.add(api::handleOf(rig.cluster, *id), 0.7);
    batch.add(api::handleOf(rig.cluster, 1234), 0.5); // unknown container
    EXPECT_EQ(rig.eco.applyCapBatch(batch).code(),
              ErrorCode::UnknownContainer);
    // All-or-nothing: the valid entry was not staged either.
    EXPECT_EQ(rig.eco.pendingCapCount(), 0u);
    rig.eco.settleTick(0, 60);
    EXPECT_TRUE(
        std::isinf(rig.eco.getContainerPowercap(rig.handle(*id)).value()));

    api::CapBatch negative;
    negative.add(api::handleOf(rig.cluster, *id), -2.0);
    EXPECT_EQ(rig.eco.applyCapBatch(negative).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(rig.eco.pendingCapCount(), 0u);
}

} // namespace
} // namespace ecov::core
