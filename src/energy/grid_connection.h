/**
 * @file
 * Metered grid connection with an attached carbon-intensity signal.
 *
 * The grid supplies (or absorbs, when net metering) unlimited power on
 * demand; what the ecovisor needs from it is accurate metering of draw
 * per tick and the real-time carbon intensity of that draw.
 */

#ifndef ECOV_ENERGY_GRID_CONNECTION_H
#define ECOV_ENERGY_GRID_CONNECTION_H

#include "carbon/carbon_signal.h"
#include "util/units.h"

namespace ecov::energy {

/**
 * Grid endpoint: unlimited supply, cumulative energy/carbon meters.
 */
class GridConnection
{
  public:
    /**
     * @param signal carbon-intensity source (borrowed; must outlive
     *        this object)
     * @param max_power_w optional feeder limit; 0 = unlimited
     */
    explicit GridConnection(const carbon::CarbonIntensitySignal *signal,
                            double max_power_w = 0.0);

    /** Carbon intensity (gCO2/kWh) of grid power at time t. */
    double carbonIntensityAt(TimeS t) const;

    /**
     * Draw power for one tick and meter the energy and carbon.
     *
     * @param power_w requested average power over the tick
     * @param t tick start time (used for carbon intensity)
     * @param dt_s tick length
     * @return power actually supplied (== request unless a feeder
     *         limit applies)
     */
    double draw(double power_w, TimeS t, TimeS dt_s);

    /** Cumulative energy drawn, watt-hours. */
    double totalEnergyWh() const { return total_energy_wh_; }

    /** Cumulative attributed carbon, grams CO2-eq. */
    double totalCarbonG() const { return total_carbon_g_; }

    /** Feeder limit in watts (0 = unlimited). */
    double maxPowerW() const { return max_power_w_; }

    /** Overwrite meters with checkpointed values (src/ckpt/). */
    void
    restoreMeters(double total_energy_wh, double total_carbon_g)
    {
        total_energy_wh_ = total_energy_wh;
        total_carbon_g_ = total_carbon_g;
    }

  private:
    const carbon::CarbonIntensitySignal *signal_;
    double max_power_w_;
    double total_energy_wh_ = 0.0;
    double total_carbon_g_ = 0.0;
};

} // namespace ecov::energy

#endif // ECOV_ENERGY_GRID_CONNECTION_H
