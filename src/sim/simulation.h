/**
 * @file
 * Tick-driven simulation driver.
 *
 * Components register tick callbacks; each tick the driver
 * dispatches them in registration-priority order, mirroring the
 * ecovisor's asynchronous tick() upcall (Table 1). Determinism is
 * guaranteed by ordered dispatch: equal priorities run in registration
 * order.
 */

#ifndef ECOV_SIM_SIMULATION_H
#define ECOV_SIM_SIMULATION_H

#include <functional>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "util/units.h"

namespace ecov::sim {

/**
 * Orders tick dispatch. Lower values run earlier within a tick.
 *
 * The canonical ordering for ecovisor experiments:
 *   Environment (traces) -> Policies (apps adjust knobs based on the
 *   previous tick's settled state and the current signals) ->
 *   Workloads (containers set demand) -> Ecovisor accounting ->
 *   Telemetry.
 */
enum class TickPhase : int
{
    Environment = 0,  ///< advance traces (solar, carbon, request load)
    Policy = 10,      ///< application tick() handlers adjust knobs
    Workload = 20,    ///< execute container demand for the interval
    Accounting = 30,  ///< ecovisor settles energy/carbon for the interval
    Telemetry = 40,   ///< record series after settlement
};

/**
 * The simulation driver: owns the clock and the listener registry, and
 * advances the world tick by tick.
 */
class Simulation
{
  public:
    /**
     * A tick listener. It receives the time at the *start* of the
     * elapsed interval and the interval length, and integrates state
     * over [start_s, start_s + dt_s).
     */
    using TickFn = std::function<void(TimeS start_s, TimeS dt_s)>;

    /**
     * @param tick_interval_s tick length in seconds (paper default 60)
     * @param start_s initial simulated time
     */
    explicit Simulation(TimeS tick_interval_s = 60, TimeS start_s = 0);

    /** The shared clock. */
    const SimClock &clock() const { return clock_; }

    /** Current simulated time. */
    TimeS now() const { return clock_.now(); }

    /** Tick interval in seconds. */
    TimeS tickInterval() const { return clock_.tickInterval(); }

    /**
     * Register a listener.
     *
     * @param fn the callback; what it captures must outlive the
     *        simulation loop
     * @param phase dispatch phase within each tick
     * @param name diagnostic label
     */
    void addListener(TickFn fn, TickPhase phase, std::string name = "");

    /** Run a single tick: dispatch all listeners, then advance time. */
    void step();

    /**
     * Jump the clock to a recovered position (checkpoint restore,
     * docs/CHECKPOINT.md). Listener registry is untouched — recovery
     * re-registers listeners exactly as the original boot did.
     */
    void
    restoreClock(TimeS now_s, std::int64_t ticks)
    {
        clock_.restore(now_s, ticks);
    }

    /** Run ticks until the clock reaches at least end_s. */
    void runUntil(TimeS end_s);

    /** Run a fixed number of ticks. */
    void runTicks(std::int64_t ticks);

    /** Ticks this instance has executed since construction. */
    std::uint64_t ticksExecuted() const { return ticks_executed_; }

    /**
     * Cumulative ticks executed by *all* Simulation instances in this
     * process. Scenario harnesses (ecobench) snapshot this around a
     * run to compute tick throughput even when a scenario constructs
     * several simulations internally (e.g. repeated-arrival
     * aggregates). Monotonic; never reset.
     */
    static std::uint64_t globalTickCount();

  private:
    struct Entry
    {
        int priority;
        std::int64_t order;
        TickFn fn;
        std::string name;
    };

    void sortEntries();

    SimClock clock_;
    std::vector<Entry> entries_;
    std::int64_t next_order_ = 0;
    std::uint64_t ticks_executed_ = 0;
    bool dirty_ = false;
};

} // namespace ecov::sim

#endif // ECOV_SIM_SIMULATION_H
