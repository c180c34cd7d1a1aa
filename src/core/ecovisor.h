/**
 * @file
 * The ecovisor: software-defined visibility into, and control of, a
 * virtualized energy system (Sections 3-4).
 *
 * The ecovisor wraps a container orchestration platform (cop::Cluster)
 * and a physical energy system, and exposes the paper's narrow API
 * (Table 1) to each application:
 *
 *   setters: set_container_powercap, set_battery_charge_rate,
 *            set_battery_max_discharge
 *   getters: get_solar_power, get_grid_power, get_grid_carbon,
 *            get_battery_discharge_rate, get_battery_charge_level,
 *            get_container_powercap, get_container_power
 *   upcall:  tick() every delta-t
 *
 * It holds privileged access to the cluster (to translate watt caps
 * into cgroup utilization caps), to the physical battery/solar/grid
 * (to enforce aggregate limits), and to the telemetry store (to record
 * history for Table 2's interval queries).
 *
 * One surface exposes the API, addressed by typed handles
 * (docs/API.md): apps register through tryAddApp(), which returns an
 * api::AppHandle; per-app state lives in a contiguous, index-addressed
 * vector, so every per-app call is a bounds check plus an array index
 * — no string-keyed map walk on the hot path. Names are resolved once,
 * at setup time (tryAddApp()/findApp()). Every call returns
 * api::Status / api::Result<T> instead of aborting on misuse, which is
 * what makes the surface safe for untrusted tenants. Batched calls
 * (getEnergySnapshot(), applyCapBatch()) amortise per-call overhead
 * and give atomic cap updates at tick settlement.
 */

#ifndef ECOV_CORE_ECOVISOR_H
#define ECOV_CORE_ECOVISOR_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/handle.h"
#include "api/snapshot.h"
#include "api/status.h"
#include "api/telemetry.h"
#include "cop/cluster.h"
#include "core/faults.h"
#include "core/virtual_energy_system.h"
#include "energy/physical_energy_system.h"
#include "sim/simulation.h"
#include "telemetry/ts_database.h"
#include "util/units.h"
#include "util/worker_pool.h"

namespace ecov::core {

/** What to do with system-wide excess solar (Section 3.1). */
enum class ExcessSolarPolicy
{
    Curtail,      ///< charge controller curtails it (prototype default)
    Redistribute, ///< offer it to other apps' virtual batteries
    NetMeter,     ///< export to the grid (tracked in a meter)
};

/** Ecovisor-wide options. */
struct EcovisorOptions
{
    ExcessSolarPolicy excess_solar = ExcessSolarPolicy::Curtail;
    bool record_telemetry = true;
    /**
     * Settlement worker threads. 0 (default) reads the ECOV_THREADS
     * environment variable, falling back to 1 (sequential).
     * Determinism contract (docs/PERF.md): per-app settlement is
     * sharded across threads but every cross-app reduction runs
     * sequentially in canonical app order after the join, so results
     * are bit-identical at any thread count.
     */
    int threads = 0;
    /**
     * Expected simulation length in ticks. When positive, every
     * telemetry series is pre-sized for that many samples at intern
     * time, eliminating repeated vector growth reallocation across
     * long runs. 0 (default) reserves nothing. Purely a capacity
     * hint: recorded values are unchanged, and on a retention-bounded
     * series (below) the reservation is capped at the retention bound
     * (see docs/PERF.md "Retention tiers").
     */
    std::int64_t expected_ticks = 0;
    /**
     * Raw telemetry samples retained per series; 0 (default) keeps
     * everything — the seed's unbounded append-only behavior, bit-
     * identical. When positive (and/or retention_window_s is set),
     * every series the ecovisor interns becomes a bounded three-tier
     * store: a raw hot ring, delta-compressed cold blocks, and
     * minute/hour rollups, so long-horizon memory is O(retention)
     * instead of O(horizon). Interval queries are bit-identical to
     * the unbounded run while the window start lies inside the exact
     * (ring + cold) coverage; older history is answered from rollups
     * at bucket resolution and clamps to 0 beyond them (docs/PERF.md
     * "Retention tiers").
     */
    std::int64_t retention_samples = 0;
    /**
     * Raw sample age bound in seconds behind the newest sample; 0
     * (default) = no time bound. Combines with retention_samples
     * (tighter bound wins). Same tier semantics as above.
     */
    TimeS retention_window_s = 0;
};

/**
 * Value image of the ecovisor's runtime state for checkpoint/restore
 * (src/ckpt/, docs/CHECKPOINT.md). Captured only at a tick boundary —
 * staged cap batches are committed at settlement, so the staged set is
 * empty by construction and not part of the image. Telemetry history
 * and registered callbacks are deliberately excluded: history is
 * derived observable output (recovery resumes recording forward), and
 * callbacks are in-process wiring the recovering host re-registers.
 */
struct EcovisorImage
{
    struct AppImage
    {
        std::string name;
        AppShareConfig share; ///< full registration input
        VesImage ves;         ///< runtime state of the app's VES
    };
    std::vector<AppImage> apps; ///< registration (handle-index) order
    /** Finite watt caps of live containers, container id ascending. */
    std::vector<std::pair<cop::ContainerId, double>> powercaps;
    /** Live emergency-capped containers, ascending by (app name, id):
     *  the settle order the outage capped them in. */
    std::vector<cop::ContainerId> emergency_capped;
    std::int64_t degraded_ticks = 0;
    std::int64_t slo_violation_ticks = 0;
    double unserved_wh = 0.0;
    double net_metered_wh = 0.0;
    double curtailed_wh = 0.0;
    TimeS last_settled_s = -1;
    TimeS last_dt_s = 0;
    double last_site_solar_w = 0.0;
    double last_intensity = 0.0;
    std::int64_t settled_ticks = 0;
};

/**
 * The ecovisor core. One instance manages one cluster + energy system
 * and any number of application virtual energy systems.
 */
class Ecovisor
{
  public:
    /** Application tick() upcall type (Table 1's notification). */
    using TickCallback = std::function<void(TimeS start_s, TimeS dt_s)>;

    /**
     * @param cluster borrowed COP; must outlive the ecovisor
     * @param phys borrowed physical energy system; must outlive us
     * @param options policy knobs
     */
    Ecovisor(cop::Cluster *cluster, energy::PhysicalEnergySystem *phys,
             EcovisorOptions options = {});

    // ------------------------------------------------------------------
    // Application registration and name resolution (§3.3).
    // ------------------------------------------------------------------

    /**
     * Register an application and its share of the physical energy
     * system, validating that aggregate shares fit the hardware:
     * solar fractions sum to <= 1 and battery capacity/rate shares
     * sum to within the physical bank's limits.
     *
     * @return the app's handle, or DuplicateApp / ShareViolation /
     *         NoSolar / NoBattery / InvalidArgument
     */
    api::Result<api::AppHandle> tryAddApp(const std::string &app,
                                          const AppShareConfig &share);

    /**
     * The registration rules as one pure check: `app` and `share`
     * against the registered apps followed by `earlier`, the apps a
     * snapshot image registers before it. tryAddApp() applies it to
     * live input, and snapshot recovery to every image app before
     * anything is restored (docs/CHECKPOINT.md).
     *
     * @return Ok, or the error tryAddApp() returns for this input
     */
    api::Status
    checkApp(const std::string &app, const AppShareConfig &share,
             std::span<const EcovisorImage::AppImage> earlier = {}) const;

    /**
     * Resolve a registered name to its handle (the only string lookup
     * a client ever needs — do it once, at setup time).
     */
    api::Result<api::AppHandle> findApp(std::string_view app) const;

    /** Number of registered applications (handle indices are
     *  0..appCount()-1 in registration order). */
    std::size_t appCount() const { return apps_.size(); }

    /** The name a handle was registered under. */
    api::Result<std::string> appName(api::AppHandle h) const;

    /** Registered application names (deterministic sorted order). */
    std::vector<std::string> appNames() const;

    // ------------------------------------------------------------------
    // Table 1 setters (Status-returning, handle-addressed).
    // ------------------------------------------------------------------

    /** Set an app's battery charge rate (W) until full. */
    api::Status setBatteryChargeRate(api::AppHandle h, double rate_w);

    /** Set an app's max battery discharge rate (W). */
    api::Status setBatteryMaxDischarge(api::AppHandle h, double rate_w);

    /**
     * Set a container's power cap in watts, effective immediately.
     * Pass kUnlimitedW to remove the cap.
     */
    api::Status setContainerPowercap(api::ContainerHandle c,
                                     double cap_w);

    /**
     * Validate a batch of container power caps as a unit and stage it
     * for atomic commit at the next tick settlement. Either every
     * entry is accepted or none are (the staged set is untouched on
     * error). Containers destroyed between staging and settlement are
     * skipped at commit, matching the revocation semantics of
     * per-tick cap re-application.
     */
    api::Status applyCapBatch(const api::CapBatch &batch);

    /** Caps staged by applyCapBatch() awaiting the next settlement. */
    std::size_t pendingCapCount() const { return staged_caps_.size(); }

    // ------------------------------------------------------------------
    // Table 1 getters (Result-returning, handle-addressed).
    // ------------------------------------------------------------------

    /** Current virtual solar power output for an app, watts. */
    api::Result<double> getSolarPower(api::AppHandle h) const;

    /** App's grid power usage over the last settled tick, watts. */
    api::Result<double> getGridPower(api::AppHandle h) const;

    /**
     * Current grid carbon intensity, gCO2/kWh. Site-wide, so it takes
     * no app argument; during a sensor blackout it reads the last
     * settled value (docs/FAULTS.md).
     */
    double getGridCarbon() const;

    /** App's battery discharge rate over the last settled tick, W. */
    api::Result<double> getBatteryDischargeRate(api::AppHandle h) const;

    /** Energy stored in the app's virtual battery, watt-hours. */
    api::Result<double> getBatteryChargeLevel(api::AppHandle h) const;

    /** A container's power cap, watts (kUnlimitedW when uncapped). */
    api::Result<double> getContainerPowercap(api::ContainerHandle c) const;

    /** A container's attributed power usage, watts. */
    api::Result<double> getContainerPower(api::ContainerHandle c) const;

    /**
     * Every Table 1 getter for one app in a single call; all fields
     * are read coherently at the current tick.
     */
    api::Result<api::EnergySnapshot>
    getEnergySnapshot(api::AppHandle h) const;

    /** Register an application's tick() upcall. */
    api::Status registerTickCallback(api::AppHandle h, TickCallback cb);

    /**
     * Per-app virtual energy system (privileged / library layer);
     * nullptr when the handle is invalid.
     */
    const VirtualEnergySystem *ves(api::AppHandle h) const;

    /**
     * The COP app index the handle's name was interned to at
     * registration (kInvalidApp for an invalid handle). Library
     * layers use it for allocation-free container iteration via
     * Cluster::forEachAppContainer().
     */
    cop::AppIndex copAppIndex(api::AppHandle h) const;

    /**
     * The interned telemetry SeriesId for one of an app's per-app
     * series (api::AppMetric). Resolved once at registration, so this
     * is an array read — a client caches the id and queries
     * db().series(id) with zero string traffic per call. The id is
     * returned even for series the app never writes (e.g. BattSoc
     * without a battery share); such series simply stay empty.
     */
    api::Result<ts::SeriesId> appSeriesId(api::AppHandle h,
                                          api::AppMetric m) const;

    /**
     * The interned telemetry SeriesId for a container series
     * (api::ContainerMetric). Ids are cached on the container's COP
     * slab slot under its generation — created here or at the
     * container's first recorded tick, whichever comes first, and
     * never aliased onto the slot's next occupant after destroy.
     * Non-const because first resolution interns into the store.
     * UnknownContainer for an invalid or stale handle.
     */
    api::Result<ts::SeriesId>
    containerSeriesId(api::ContainerHandle c, api::ContainerMetric m);

    /** Settlement parallelism in effect (resolved from options/env). */
    int settleThreads() const { return threads_; }

    // ------------------------------------------------------------------
    // Tick upcall dispatch and simulation integration.
    // ------------------------------------------------------------------

    /**
     * Attach to a simulation: dispatches app tick() callbacks in the
     * Policy phase and settles energy/carbon in the Accounting phase.
     */
    void attach(sim::Simulation &simulation);

    /**
     * Settle one tick directly (used by attach(); exposed for tests
     * and for embedding without a Simulation). Commits any staged
     * CapBatch before re-applying per-container caps.
     */
    void settleTick(TimeS start_s, TimeS dt_s);

    /** Dispatch registered app callbacks (Policy phase). */
    void dispatchTickCallbacks(TimeS start_s, TimeS dt_s);

    /**
     * Install a hook that runs at the very top of settleTick(), before
     * staged caps commit and before any settlement state is read. This
     * is the commit point for a transport front-end (net::ServerCore):
     * tenant requests that arrived since the previous tick are applied
     * here in a canonical order, so the settled results are
     * bit-identical regardless of network arrival interleaving. The
     * hook runs sequentially on the settling thread and may call any
     * surface method. One consumer at a time; pass nullptr to
     * uninstall.
     */
    void
    setPreSettleHook(std::function<void(TimeS, TimeS)> hook)
    {
        pre_settle_hook_ = std::move(hook);
    }

    // ------------------------------------------------------------------
    // Fault plane (src/fault/, docs/FAULTS.md).
    // ------------------------------------------------------------------

    /**
     * Install the fault-resolution hook. It runs at the very top of
     * settleTick() — before the pre-settle (transport commit) hook —
     * and typically calls setEnergyFaults() with the schedule's
     * active fault set for the tick. Sequential, one consumer at a
     * time (the pre-settle hook slot is owned by net::ServerCore, so
     * the fault plane gets its own); pass nullptr to uninstall.
     */
    void
    setFaultHook(std::function<void(TimeS, TimeS)> hook)
    {
        fault_hook_ = std::move(hook);
    }

    /** Set the fault set applied from the next settlement on. */
    void setEnergyFaults(const EnergyFaults &faults) { faults_ = faults; }

    /** The fault set currently in effect. */
    const EnergyFaults &energyFaults() const { return faults_; }

    /** Ticks settled with at least one fault armed. */
    std::int64_t degradedTicks() const { return degraded_ticks_; }

    /**
     * Ticks on which tenant demand was cut — emergency-capped during
     * a grid outage or shed as unserved load (the SLO-violation
     * count for fault benches).
     */
    std::int64_t sloViolationTicks() const { return slo_violation_ticks_; }

    /** Cumulative demand shed during grid outages, watt-hours. */
    double unservedWh() const { return unserved_wh_; }

    // ------------------------------------------------------------------
    // Privileged access (library layer, tests, benches).
    // ------------------------------------------------------------------

    /** The COP under management. */
    cop::Cluster &cluster() { return *cluster_; }
    const cop::Cluster &cluster() const { return *cluster_; }

    /** The physical energy system under management. */
    energy::PhysicalEnergySystem &physical() { return *phys_; }

    /** Telemetry store backing Table 2's interval queries. */
    const ts::TsDatabase &db() const { return db_; }

    /** Time of the most recent settled tick start, or -1 before any. */
    TimeS lastSettledTick() const { return last_settled_s_; }

    /** Cumulative energy exported by net metering, watt-hours. */
    double netMeteredWh() const { return net_metered_wh_; }

    /** Cumulative curtailed solar across apps + unowned, watt-hours. */
    double curtailedWh() const { return curtailed_wh_; }

    /** Aggregate virtual battery level across apps, watt-hours. */
    double aggregateBatteryWh() const;

    /** Options in effect. */
    const EcovisorOptions &options() const { return options_; }

    // ------------------------------------------------------------------
    // Checkpoint/restore (src/ckpt/, docs/CHECKPOINT.md).
    // ------------------------------------------------------------------

    /**
     * Capture runtime state at a tick boundary. Fatal when a staged
     * cap batch has not yet committed (the caller snapshotted
     * mid-tick, which the checkpoint manager never does).
     */
    EcovisorImage captureState() const;

    /**
     * Rebuild from an image into a freshly constructed ecovisor (same
     * cluster/physical-system configs, no apps registered yet — fatal
     * otherwise). Each app is re-registered through tryAddApp(), so
     * handle indices, COP intern indices and telemetry SeriesIds come
     * out exactly as the captured run assigned them; the VES internals
     * are then overwritten with the captured runtime state. Restore
     * the cluster first — tryAddApp re-interns against it, and the
     * watt caps and emergency flags go back into its columns (fatal on
     * an id the restored cluster does not hold live).
     */
    void restoreState(const EcovisorImage &image);

  private:
    /**
     * Per-app state, index-addressed by AppHandle. The VES sits
     * behind a unique_ptr so references handed out by ves() stay
     * stable across the vector growing on later registrations.
     */
    /**
     * Pre-resolved telemetry SeriesIds for one app's per-app series,
     * interned at tryAddApp. Recording is then a pure indexed append
     * per series — no string keys, no map walk, no allocation.
     */
    struct AppSeriesIds
    {
        ts::SeriesId power = ts::kInvalidSeries;
        ts::SeriesId grid = ts::kInvalidSeries;
        ts::SeriesId solar_used = ts::kInvalidSeries;
        ts::SeriesId batt_discharge = ts::kInvalidSeries;
        ts::SeriesId batt_charge = ts::kInvalidSeries;
        ts::SeriesId carbon = ts::kInvalidSeries;
        ts::SeriesId soc = ts::kInvalidSeries;
        ts::SeriesId containers = ts::kInvalidSeries;
    };

    struct AppState
    {
        std::string name;
        /** The name's interned COP index (container-list walks). */
        cop::AppIndex cop_app = cop::kInvalidApp;
        double solar_fraction = 0.0; ///< cached from the share config
        AppSeriesIds series; ///< interned at registration
        std::unique_ptr<VirtualEnergySystem> ves;
        /**
         * Deque, not vector: registerTickCallback() may be called from
         * inside a running callback (a tenant registering a second
         * upcall for its own app), and deque push_back never
         * invalidates references to existing elements — including the
         * one currently executing.
         */
        std::deque<TickCallback> callbacks;
    };

    /** State for a handle; nullptr when the handle is invalid. */
    AppState *state(api::AppHandle h);
    const AppState *state(api::AppHandle h) const;

    void commitStagedCaps();

    /**
     * Record the tick into the telemetry store. Globals and the
     * sequential id-resolution pass run first; the per-app appends
     * are then sharded over the worker pool (each app's series set is
     * disjoint, every series receives exactly one append per tick, so
     * results are bit-identical at any thread count — the settleTick
     * contract).
     */
    void recordTelemetry(TimeS start_s);

    /** Per-app appends for one tick (shardable, app-local only). */
    void recordApp(const AppState &st, TimeS start_s);

    /**
     * Ensure the slot's container series ids are interned and cached
     * under its current generation. Mutates the store on a miss, so
     * only callable from sequential phases.
     */
    void ensureContainerSeries(cop::ContainerId id, std::int32_t slot);

    /**
     * Pre-size a series for the ticks still ahead of the horizon
     * hint (expected_ticks minus ticks already settled — a series
     * interned mid-run can never fill more). No-op without a hint.
     */
    void reserveExpected(ts::SeriesId id);

    /**
     * Run fn(AppState &) for every app in settle_order_ (canonical
     * sorted-by-name order), partitioned into contiguous shards over
     * the worker pool when threads_ > 1 — the shared dispatch for
     * settlement and telemetry recording. fn must touch only
     * app-local state; callers sequence every cross-app reduction
     * after this returns (the docs/PERF.md determinism contract).
     */
    template <typename Fn>
    void
    runSharded(Fn &&fn)
    {
        const int app_count = static_cast<int>(settle_order_.size());
        const int shards = std::min(threads_, app_count);
        if (shards <= 1) {
            for (std::int32_t idx : settle_order_)
                fn(apps_[static_cast<std::size_t>(idx)]);
            return;
        }
        if (!pool_ || pool_->threads() != threads_)
            pool_ = std::make_unique<WorkerPool>(threads_);
        pool_->run(shards, [&](int shard) {
            const int lo = shard * app_count / shards;
            const int hi = (shard + 1) * app_count / shards;
            for (int i = lo; i < hi; ++i)
                fn(apps_[static_cast<std::size_t>(
                    settle_order_[static_cast<std::size_t>(i)])]);
        });
    }

    /** Settle one app against this tick's signals (shardable). */
    void settleApp(AppState &st, double solar_w, double intensity,
                   TimeS start_s, TimeS dt_s,
                   const SettleLimits &limits);

    /**
     * Grid outage: shed every app whose demand exceeds its grid-safe
     * budget (owned solar + permitted battery discharge) through
     * cop::Cluster::shedApp, which scales its containers' utilization
     * caps. Exact clamp to what the islanded system can serve — never
     * an extrapolated brown-out curve. Returns true when any app was
     * shed.
     */
    bool applyEmergencyCaps(double site_solar_w, TimeS dt_s);

    /**
     * Current site solar reading for getters: live (and derated)
     * normally, the last settled value during a sensor blackout.
     */
    double siteSolarWNow() const;

    /** Time getters should evaluate signals at (current tick start). */
    TimeS currentTime() const;

    cop::Cluster *cluster_;
    energy::PhysicalEnergySystem *phys_;
    EcovisorOptions options_;

    /** Contiguous per-app state; AppHandle::index() addresses it. */
    std::vector<AppState> apps_;
    /**
     * Name -> registration index. Its iteration order (sorted by
     * name) is the deterministic order for callback dispatch — the
     * order the seed's name-keyed map iterated in, preserved so the
     * redesign is behavior-identical.
     */
    std::map<std::string, std::int32_t, std::less<>> index_;
    /**
     * The same sorted-by-name order as registration indices, kept
     * across ticks for settlement, the cross-app reductions and
     * telemetry. Apps are never removed, so tryAddApp() is its only
     * writer and steady-state ticks neither rebuild nor allocate it.
     */
    std::vector<std::int32_t> settle_order_;
    /** Upcalls registered across all apps (0: dispatch is a no-op). */
    std::size_t callback_count_ = 0;

    /** Caps staged by applyCapBatch(), committed at settlement. */
    std::vector<api::CapRequest> staged_caps_;

    /** Transport front-end commit point (setPreSettleHook). */
    std::function<void(TimeS, TimeS)> pre_settle_hook_;

    /** Fault plane: schedule resolution hook + the active fault set. */
    std::function<void(TimeS, TimeS)> fault_hook_;
    EnergyFaults faults_;
    /** Last settled site solar/intensity (blackout staleness source). */
    double last_site_solar_w_ = 0.0;
    double last_intensity_ = 0.0;
    std::int64_t degraded_ticks_ = 0;
    std::int64_t slo_violation_ticks_ = 0;
    double unserved_wh_ = 0.0;

    /** Settlement parallelism (>= 1) and its lazily-built pool. */
    int threads_ = 1;
    std::unique_ptr<WorkerPool> pool_;

    ts::TsDatabase db_;
    /** Pre-interned global series (constructor). */
    ts::SeriesId s_grid_carbon_ = ts::kInvalidSeries;
    ts::SeriesId s_solar_w_ = ts::kInvalidSeries;
    ts::SeriesId s_cluster_power_ = ts::kInvalidSeries;
    TimeS last_settled_s_ = -1;
    TimeS last_dt_s_ = 0;
    /** Ticks settled so far (remaining-horizon reserve sizing). */
    std::int64_t settled_ticks_ = 0;
    TimeS now_hint_s_ = -1;
    double net_metered_wh_ = 0.0;
    double curtailed_wh_ = 0.0;
};

} // namespace ecov::core

#endif // ECOV_CORE_ECOVISOR_H
