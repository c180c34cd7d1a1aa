/**
 * @file
 * Per-application virtual energy system (Section 3.1).
 *
 * Each application receives a virtual grid connection, a share of the
 * physical solar array's variable output, and a virtual battery carved
 * out of the physical bank's energy and power capacity. The virtual
 * system is functionally equivalent to the physical one, which is what
 * makes multiplexing straightforward (Section 3.3).
 *
 * Per tick, settlement follows the paper's fixed ordering:
 *   1. virtual solar first satisfies demand;
 *   2. excess solar automatically charges the virtual battery; if the
 *      application configured a higher charge rate, grid power
 *      supplements it (carbon attributed to the application);
 *   3. a deficit draws from the battery up to the application's
 *      max-discharge setting;
 *   4. any remaining deficit draws from the virtual grid, attributing
 *      carbon at the current intensity.
 * The system is energy-conserving: every tick,
 *   solar_used + battery_discharge + grid_power ==
 *       demand  and  solar_excess == battery_solar_charge + curtailed.
 */

#ifndef ECOV_CORE_VIRTUAL_ENERGY_SYSTEM_H
#define ECOV_CORE_VIRTUAL_ENERGY_SYSTEM_H

#include <limits>
#include <optional>
#include <string>

#include "energy/battery.h"
#include "util/units.h"

namespace ecov::core {

/** "No limit" sentinel for power settings. */
inline constexpr double kUnlimitedW =
    std::numeric_limits<double>::infinity();

/**
 * Exogenously assigned share of the physical energy system
 * (Section 3.3: e.g. sold independently of hardware resources).
 */
struct AppShareConfig
{
    /** Fraction of physical solar output owned by this app, [0, 1]. */
    double solar_fraction = 0.0;

    /** Virtual battery (nullopt = no battery share). */
    std::optional<energy::BatteryConfig> battery;

    /** Grid feeder limit for this app in watts; 0 = unlimited. */
    double grid_max_w = 0.0;
};

/**
 * Physical-availability limits for one tick's settlement, driven by
 * the fault plane (src/fault/, docs/FAULTS.md). The defaults describe
 * the healthy system, under which settle() computes exactly the
 * unlimited flows — arming a fault is a branch, not a formula change,
 * so the fault plane is bit-identical zero-cost when no schedule is
 * active.
 */
struct SettleLimits
{
    /** False during a grid outage: no grid import at all. */
    bool grid_available = true;
    /** False while the battery bank is offline: no charge/discharge. */
    bool battery_available = true;
    /**
     * Usable fraction of configured battery capacity (capacity fade),
     * (0, 1]. Stored energy above the faded capacity is clamped at
     * the start of the tick — exact clamp, never extrapolated decay.
     */
    double battery_capacity_factor = 1.0;
};

/** Settled energy flows for one tick (all average watts over dt). */
struct TickSettlement
{
    TimeS start_s = 0;          ///< interval start
    TimeS dt_s = 0;             ///< interval length
    double demand_w = 0.0;      ///< application power demand
    double solar_w = 0.0;       ///< virtual solar output available
    double solar_used_w = 0.0;  ///< solar consumed by demand
    double batt_discharge_w = 0.0; ///< battery -> demand
    double grid_w = 0.0;        ///< grid -> demand + grid -> battery
    double grid_to_demand_w = 0.0; ///< grid share serving demand
    double batt_charge_solar_w = 0.0; ///< excess solar -> battery
    double batt_charge_grid_w = 0.0;  ///< grid supplement -> battery
    double curtailed_w = 0.0;   ///< excess solar with nowhere to go
    double carbon_g = 0.0;      ///< carbon attributed this tick
    double intensity_g_per_kwh = 0.0; ///< grid intensity used
    /**
     * Demand that could not be served because the grid was out and
     * solar + battery fell short (always 0 outside an outage). The
     * conservation identity under faults is
     *   solar_used + battery_discharge + grid_to_demand + unserved
     *       == demand.
     */
    double unserved_w = 0.0;
};

/**
 * Value image of one VES for checkpoint/restore (docs/CHECKPOINT.md).
 * The share configuration is registration input, not runtime state —
 * it is captured by the ecovisor's app image, and restore targets a
 * VES constructed from it.
 */
struct VesImage
{
    double charge_rate_w = 0.0;
    double max_discharge_w = 0.0;
    bool has_battery = false;
    double battery_energy_wh = 0.0; ///< meaningful when has_battery
    TickSettlement last;
    double total_energy_wh = 0.0;
    double total_grid_wh = 0.0;
    double total_solar_wh = 0.0;
    double total_curtailed_wh = 0.0;
    double total_carbon_g = 0.0;
};

/**
 * The virtual energy system state machine for one application.
 */
class VirtualEnergySystem
{
  public:
    /**
     * @param app owning application name (diagnostics)
     * @param share exogenous share configuration
     */
    VirtualEnergySystem(std::string app, const AppShareConfig &share);

    /** Owning application. */
    const std::string &app() const { return app_; }

    /** Share configuration. */
    const AppShareConfig &share() const { return share_; }

    /** True when this app owns battery capacity. */
    bool hasBattery() const { return battery_.has_value(); }

    /** Virtual battery (fatal when absent). */
    const energy::Battery &battery() const;

    // --- application-controlled settings (Table 1 setters) ---

    /** Set the desired battery charge rate (W), grid-supplemented. */
    void setChargeRateW(double rate_w);

    /** Configured charge rate (W). */
    double chargeRateW() const { return charge_rate_w_; }

    /** Cap the battery discharge rate (W). */
    void setMaxDischargeW(double rate_w);

    /** Configured max discharge rate (W). */
    double maxDischargeW() const { return max_discharge_w_; }

    // --- per-tick settlement ---

    /**
     * Settle one tick, under fault-plane availability limits
     * (docs/FAULTS.md). Under an armed fault the limits gate the
     * grid/battery branches (no import during an outage, no battery
     * flow while offline, capacity clamped under fade), and any
     * shortfall is reported in TickSettlement::unserved_w.
     *
     * @param demand_w application demand (average W over the tick)
     * @param solar_w virtual solar output (average W over the tick)
     * @param intensity_g_per_kwh grid carbon intensity for the tick
     * @param start_s tick start time
     * @param dt_s tick length
     * @param limits availability; the default is the healthy system
     * @return the settled flows (also retained as lastSettlement())
     */
    const TickSettlement &settle(double demand_w, double solar_w,
                                 double intensity_g_per_kwh,
                                 TimeS start_s, TimeS dt_s,
                                 const SettleLimits &limits = {});

    /**
     * Accept externally redistributed excess solar into the battery
     * (the ecovisor's Redistribute policy for system-wide excess).
     *
     * @param power_w offered power (average W over the tick)
     * @param dt_s tick length
     * @return power actually absorbed
     */
    double absorbRedistributedSolar(double power_w, TimeS dt_s);

    /** Most recent settlement. */
    const TickSettlement &lastSettlement() const { return last_; }

    // --- cumulative meters ---

    /** Total energy consumed, watt-hours. */
    double totalEnergyWh() const { return total_energy_wh_; }

    /** Total grid energy drawn (demand + battery charging), Wh. */
    double totalGridWh() const { return total_grid_wh_; }

    /** Total solar energy used directly or stored, Wh. */
    double totalSolarWh() const { return total_solar_wh_; }

    /** Total curtailed solar energy, Wh. */
    double totalCurtailedWh() const { return total_curtailed_wh_; }

    /** Total attributed carbon, grams CO2-eq. */
    double totalCarbonG() const { return total_carbon_g_; }

    // --- checkpoint/restore (src/ckpt/, docs/CHECKPOINT.md) ---

    /** Capture the full runtime state (settings, battery charge,
     *  last settlement, cumulative meters). */
    VesImage captureState() const;

    /** Restore runtime state into a VES built from the same share
     *  config (fatal on a battery-presence mismatch). */
    void restoreState(const VesImage &image);

  private:
    std::string app_;
    AppShareConfig share_;
    std::optional<energy::Battery> battery_;

    double charge_rate_w_ = 0.0;
    double max_discharge_w_;

    TickSettlement last_;
    double total_energy_wh_ = 0.0;
    double total_grid_wh_ = 0.0;
    double total_solar_wh_ = 0.0;
    double total_curtailed_wh_ = 0.0;
    double total_carbon_g_ = 0.0;
};

} // namespace ecov::core

#endif // ECOV_CORE_VIRTUAL_ENERGY_SYSTEM_H
