#include "energy/battery.h"

#include <algorithm>

#include "util/logging.h"

namespace ecov::energy {

Battery::Battery(const BatteryConfig &config)
    : config_(config)
{
    if (config_.capacity_wh <= 0.0)
        fatal("Battery: capacity must be positive");
    if (config_.soc_floor < 0.0 || config_.soc_floor >= 1.0)
        fatal("Battery: SOC floor must be in [0, 1)");
    if (config_.soc_ceiling <= config_.soc_floor ||
        config_.soc_ceiling > 1.0)
        fatal("Battery: SOC ceiling must be in (floor, 1]");
    if (config_.max_charge_w < 0.0 || config_.max_discharge_w < 0.0)
        fatal("Battery: rate limits must be non-negative");
    if (config_.efficiency <= 0.0 || config_.efficiency > 1.0)
        fatal("Battery: efficiency must be in (0, 1]");
    if (config_.initial_soc < 0.0 || config_.initial_soc > 1.0)
        fatal("Battery: initial SOC must be in [0, 1]");
    energy_wh_ = config_.initial_soc * config_.capacity_wh;
}

double
Battery::availableWh()const
{
    double floor_wh = config_.soc_floor * config_.capacity_wh;
    return std::max(0.0, energy_wh_ - floor_wh);
}

double
Battery::headroomWh() const
{
    double ceil_wh = config_.soc_ceiling * config_.capacity_wh;
    return std::max(0.0, ceil_wh - energy_wh_);
}

bool
Battery::empty() const
{
    return availableWh() <= 1e-9;
}

bool
Battery::full() const
{
    return headroomWh() <= 1e-9;
}

double
Battery::maxChargePowerW(TimeS dt_s) const
{
    if (dt_s <= 0)
        return 0.0;
    // Stored energy per input Wh is `efficiency`; the limiting input
    // power is headroom / (efficiency * hours).
    double hours = static_cast<double>(dt_s) / kSecondsPerHour;
    double by_headroom = headroomWh() / (config_.efficiency * hours);
    return std::min(config_.max_charge_w, by_headroom);
}

double
Battery::maxDischargePowerW(TimeS dt_s) const
{
    if (dt_s <= 0)
        return 0.0;
    double hours = static_cast<double>(dt_s) / kSecondsPerHour;
    double by_energy = availableWh() / hours;
    return std::min(config_.max_discharge_w, by_energy);
}

double
Battery::charge(double power_w, TimeS dt_s)
{
    if (power_w < 0.0)
        fatal("Battery::charge: negative power");
    if (dt_s <= 0)
        return 0.0;
    double accepted_w = std::min(power_w, maxChargePowerW(dt_s));
    double stored_wh = ecov::energyWh(accepted_w, dt_s) * config_.efficiency;
    // The headroom limit can round a full charge an ulp past the
    // ceiling; the stored energy never passes the nameplate capacity.
    energy_wh_ = std::min(energy_wh_ + stored_wh, config_.capacity_wh);
    return accepted_w;
}

double
Battery::discharge(double power_w, TimeS dt_s)
{
    if (power_w < 0.0)
        fatal("Battery::discharge: negative power");
    if (dt_s <= 0)
        return 0.0;
    double delivered_w = std::min(power_w, maxDischargePowerW(dt_s));
    energy_wh_ -= ecov::energyWh(delivered_w, dt_s);
    if (energy_wh_ < 0.0)
        energy_wh_ = 0.0;
    return delivered_w;
}

void
Battery::setEnergyWh(double energy_wh)
{
    energy_wh_ = clamp(energy_wh, 0.0, config_.capacity_wh);
}

} // namespace ecov::energy
