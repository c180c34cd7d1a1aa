#include "core/virtual_energy_system.h"

#include <algorithm>

#include "util/logging.h"

namespace ecov::core {

VirtualEnergySystem::VirtualEnergySystem(std::string app,
                                         const AppShareConfig &share)
    : app_(std::move(app)), share_(share)
{
    if (share_.solar_fraction < 0.0 || share_.solar_fraction > 1.0)
        fatal("VirtualEnergySystem: solar fraction must be in [0, 1]");
    if (share_.grid_max_w < 0.0)
        fatal("VirtualEnergySystem: negative grid limit");
    if (share_.battery)
        battery_.emplace(*share_.battery);
    // Default: discharge allowed up to the battery's own rate limit.
    max_discharge_w_ = battery_ ? battery_->config().max_discharge_w : 0.0;
}

const energy::Battery &
VirtualEnergySystem::battery() const
{
    if (!battery_)
        fatal("VirtualEnergySystem: app has no battery share");
    return *battery_;
}

void
VirtualEnergySystem::setChargeRateW(double rate_w)
{
    // !(x >= 0) also rejects NaN, which would otherwise poison every
    // later settlement.
    if (!(rate_w >= 0.0))
        fatal("VirtualEnergySystem: negative or NaN charge rate");
    charge_rate_w_ = rate_w;
}

void
VirtualEnergySystem::setMaxDischargeW(double rate_w)
{
    if (!(rate_w >= 0.0))
        fatal("VirtualEnergySystem: negative or NaN discharge rate");
    max_discharge_w_ = rate_w;
}

const TickSettlement &
VirtualEnergySystem::settle(double demand_w, double solar_w,
                            double intensity_g_per_kwh,
                            TimeS start_s, TimeS dt_s,
                            const SettleLimits &limits)
{
    if (demand_w < 0.0 || solar_w < 0.0)
        fatal("VirtualEnergySystem::settle: negative power");
    if (dt_s <= 0)
        fatal("VirtualEnergySystem::settle: non-positive tick");

    // Every fault gate below is a branch on the default-healthy
    // limits: with SettleLimits{} the arithmetic is bit-identical to
    // the pre-fault-plane settlement (zero-cost-when-off contract,
    // docs/FAULTS.md).
    const bool batt_ok = battery_.has_value() && limits.battery_available;

    // Capacity fade: clamp stored energy to the usable capacity at
    // the start of the tick. An exact clamp, not a decay model — the
    // same "exact coverage or clamp" discipline as telemetry
    // retention (docs/PERF.md).
    if (battery_ && limits.battery_capacity_factor < 1.0) {
        double usable_wh = limits.battery_capacity_factor *
                           battery_->config().capacity_wh;
        if (battery_->energyWh() > usable_wh)
            battery_->setEnergyWh(usable_wh);
    }

    TickSettlement s;
    s.start_s = start_s;
    s.dt_s = dt_s;
    s.demand_w = demand_w;
    s.solar_w = solar_w;
    s.intensity_g_per_kwh = intensity_g_per_kwh;

    // 1. Solar first.
    s.solar_used_w = std::min(demand_w, solar_w);
    double deficit_w = demand_w - s.solar_used_w;
    double excess_w = solar_w - s.solar_used_w;

    // 2. Battery covers the deficit up to the app's discharge setting.
    if (deficit_w > 0.0 && batt_ok && max_discharge_w_ > 0.0) {
        double want = std::min(deficit_w, max_discharge_w_);
        s.batt_discharge_w = battery_->discharge(want, dt_s);
        deficit_w -= s.batt_discharge_w;
    }

    // 3. Excess solar charges the battery automatically; the app's
    //    configured charge rate may add a grid supplement. The grid
    //    supplement is suppressed while the battery is being
    //    discharged (simultaneous grid-charge + discharge would just
    //    round-trip energy through the battery), and during a grid
    //    outage (nothing to supplement with).
    if (batt_ok && excess_w > 0.0) {
        double grid_supplement =
            (s.batt_discharge_w > 0.0 || !limits.grid_available)
                ? 0.0
                : std::max(0.0, charge_rate_w_ - excess_w);
        double accepted =
            battery_->charge(excess_w + grid_supplement, dt_s);
        s.batt_charge_solar_w = std::min(accepted, excess_w);
        s.batt_charge_grid_w = accepted - s.batt_charge_solar_w;
        s.curtailed_w = excess_w - s.batt_charge_solar_w;
    } else if (batt_ok && excess_w <= 0.0 && s.batt_discharge_w <= 0.0 &&
               charge_rate_w_ > 0.0 && limits.grid_available) {
        // Pure grid charging (carbon arbitrage case: store low-carbon
        // grid energy for later).
        s.batt_charge_grid_w = battery_->charge(charge_rate_w_, dt_s);
    } else {
        s.curtailed_w = excess_w;
    }

    // 4. Remaining deficit comes from the virtual grid — unless the
    //    grid is out, in which case it is unserved load: the fault
    //    plane sheds it explicitly rather than pretending the import
    //    happened (graceful degradation, never extrapolation).
    if (!limits.grid_available) {
        s.unserved_w = deficit_w;
        deficit_w = 0.0;
    }
    s.grid_to_demand_w = deficit_w;
    s.grid_w = s.grid_to_demand_w + s.batt_charge_grid_w;
    if (share_.grid_max_w > 0.0 && s.grid_w > share_.grid_max_w) {
        // Feeder limit: shed battery charging first, then demand.
        double over = s.grid_w - share_.grid_max_w;
        double shed_charge = std::min(over, s.batt_charge_grid_w);
        if (shed_charge > 0.0 && battery_) {
            // Undo the overdrawn charging energy.
            battery_->setEnergyWh(battery_->energyWh() -
                                  energyWh(shed_charge, dt_s) *
                                      battery_->config().efficiency);
            s.batt_charge_grid_w -= shed_charge;
            over -= shed_charge;
        }
        if (over > 0.0) {
            s.grid_to_demand_w -= over;
            warn("VirtualEnergySystem(" + app_ +
                 "): demand exceeds grid share; shedding load");
        }
        s.grid_w = s.grid_to_demand_w + s.batt_charge_grid_w;
    }

    // 5. Attribute carbon for every grid watt used this tick.
    s.carbon_g = carbonGrams(energyWh(s.grid_w, dt_s),
                             intensity_g_per_kwh);

    // Cumulative meters.
    double served_w = s.solar_used_w + s.batt_discharge_w +
                      s.grid_to_demand_w;
    total_energy_wh_ += energyWh(served_w, dt_s);
    total_grid_wh_ += energyWh(s.grid_w, dt_s);
    total_solar_wh_ +=
        energyWh(s.solar_used_w + s.batt_charge_solar_w, dt_s);
    total_curtailed_wh_ += energyWh(s.curtailed_w, dt_s);
    total_carbon_g_ += s.carbon_g;

    last_ = s;
    return last_;
}

VesImage
VirtualEnergySystem::captureState() const
{
    VesImage img;
    img.charge_rate_w = charge_rate_w_;
    img.max_discharge_w = max_discharge_w_;
    img.has_battery = battery_.has_value();
    if (battery_)
        img.battery_energy_wh = battery_->energyWh();
    img.last = last_;
    img.total_energy_wh = total_energy_wh_;
    img.total_grid_wh = total_grid_wh_;
    img.total_solar_wh = total_solar_wh_;
    img.total_curtailed_wh = total_curtailed_wh_;
    img.total_carbon_g = total_carbon_g_;
    return img;
}

void
VirtualEnergySystem::restoreState(const VesImage &image)
{
    if (image.has_battery != battery_.has_value())
        fatal("VirtualEnergySystem::restoreState: battery share "
              "mismatch (image from a different config?)");
    charge_rate_w_ = image.charge_rate_w;
    max_discharge_w_ = image.max_discharge_w;
    if (battery_)
        battery_->setEnergyWh(image.battery_energy_wh);
    last_ = image.last;
    total_energy_wh_ = image.total_energy_wh;
    total_grid_wh_ = image.total_grid_wh;
    total_solar_wh_ = image.total_solar_wh;
    total_curtailed_wh_ = image.total_curtailed_wh;
    total_carbon_g_ = image.total_carbon_g;
}

double
VirtualEnergySystem::absorbRedistributedSolar(double power_w, TimeS dt_s)
{
    if (!battery_ || power_w <= 0.0)
        return 0.0;
    // The charge-rate limit applies to the whole tick: redistribution
    // may only use whatever headroom this tick's settlement left.
    double already_w =
        last_.batt_charge_solar_w + last_.batt_charge_grid_w;
    double room_w =
        std::max(0.0, battery_->config().max_charge_w - already_w);
    double accepted = battery_->charge(std::min(power_w, room_w), dt_s);
    last_.batt_charge_solar_w += accepted;
    total_solar_wh_ += energyWh(accepted, dt_s);
    return accepted;
}

} // namespace ecov::core
