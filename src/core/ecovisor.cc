#include "core/ecovisor.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/logging.h"

namespace ecov::core {

using api::AppHandle;
using api::ContainerHandle;
using api::ErrorCode;
using api::Result;
using api::Status;

namespace {

Status
unknownApp(std::string_view app)
{
    return Status::error(ErrorCode::UnknownApp,
                         "Ecovisor: unknown app '" + std::string(app) +
                             "'");
}

Status
invalidHandle()
{
    return Status::error(ErrorCode::InvalidHandle,
                         "Ecovisor: invalid app handle");
}

/**
 * Resolve the settlement thread count: an explicit option wins,
 * otherwise the ECOV_THREADS environment variable, otherwise 1.
 * Clamped to [1, 256] — a typo like ECOV_THREADS=1e9 must not fork a
 * thread bomb.
 */
int
resolveThreads(int option_threads)
{
    long v = option_threads;
    if (v <= 0) {
        const char *env = std::getenv("ECOV_THREADS");
        v = (env && *env) ? std::strtol(env, nullptr, 10) : 1;
    }
    return static_cast<int>(std::clamp(v, 1L, 256L));
}

} // namespace

Ecovisor::Ecovisor(cop::Cluster *cluster,
                   energy::PhysicalEnergySystem *phys,
                   EcovisorOptions options)
    : cluster_(cluster), phys_(phys), options_(options),
      threads_(resolveThreads(options.threads))
{
    if (!cluster_)
        fatal("Ecovisor: null cluster");
    if (!phys_)
        fatal("Ecovisor: null physical energy system");

    // Install the retention policy before interning anything, so
    // every series — globals here, per-app/per-container later — is
    // uniformly bounded (or uniformly unbounded, the default).
    if (options_.retention_samples > 0 ||
        options_.retention_window_s > 0) {
        ts::RetentionConfig retention;
        if (options_.retention_samples > 0)
            retention.max_samples =
                static_cast<std::size_t>(options_.retention_samples);
        retention.window_s = options_.retention_window_s;
        db_.setDefaultRetention(retention);
    }

    // Pre-intern the global series: recording them is then a pure
    // indexed append. Interned-but-unwritten series are invisible to
    // the query surface, so doing this even with record_telemetry
    // off changes nothing observable.
    s_grid_carbon_ = db_.intern("grid_carbon", "");
    s_solar_w_ = db_.intern("solar_w", "");
    s_cluster_power_ = db_.intern("cluster_power_w", "");
    reserveExpected(s_grid_carbon_);
    reserveExpected(s_solar_w_);
    reserveExpected(s_cluster_power_);
}

void
Ecovisor::reserveExpected(ts::SeriesId id)
{
    const std::int64_t remaining =
        options_.expected_ticks - settled_ticks_;
    if (remaining > 0)
        db_.reserve(id, static_cast<std::size_t>(remaining));
}

// ---------------------------------------------------------------------
// Registration and name resolution.
// ---------------------------------------------------------------------

Status
Ecovisor::checkApp(const std::string &app, const AppShareConfig &share,
                   std::span<const EcovisorImage::AppImage> earlier) const
{
    if (app.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "Ecovisor::tryAddApp: empty app name");
    if (index_.count(app) ||
        std::any_of(earlier.begin(), earlier.end(),
                    [&](const auto &a) { return a.name == app; }))
        return Status::error(ErrorCode::DuplicateApp,
                             "Ecovisor::tryAddApp: duplicate app '" + app +
                                 "'");

    // A NaN share parameter would slip through every range check
    // below (all comparisons are false for NaN) and then poison the
    // aggregate share validation and settlement for *all* tenants, so
    // reject it up front.
    const bool nan_share =
        std::isnan(share.solar_fraction) || std::isnan(share.grid_max_w) ||
        (share.battery && (std::isnan(share.battery->capacity_wh) ||
                           std::isnan(share.battery->max_charge_w) ||
                           std::isnan(share.battery->max_discharge_w) ||
                           std::isnan(share.battery->initial_soc) ||
                           std::isnan(share.battery->soc_floor) ||
                           std::isnan(share.battery->soc_ceiling) ||
                           std::isnan(share.battery->efficiency)));
    if (nan_share)
        return Status::error(ErrorCode::InvalidArgument,
                             "Ecovisor::tryAddApp: NaN share parameter");

    // Validate aggregate shares against the physical system (§3.3).
    double solar_total = share.solar_fraction;
    double cap_total = share.battery ? share.battery->capacity_wh : 0.0;
    double charge_total = share.battery ? share.battery->max_charge_w : 0.0;
    double discharge_total =
        share.battery ? share.battery->max_discharge_w : 0.0;
    const auto add = [&](const AppShareConfig &s) {
        solar_total += s.solar_fraction;
        if (s.battery) {
            cap_total += s.battery->capacity_wh;
            charge_total += s.battery->max_charge_w;
            discharge_total += s.battery->max_discharge_w;
        }
    };
    for (const auto &st : apps_)
        add(st.ves->share());
    for (const auto &a : earlier)
        add(a.share);
    if (solar_total > 1.0 + 1e-9)
        return Status::error(ErrorCode::ShareViolation,
                             "Ecovisor::tryAddApp: solar fractions exceed "
                             "100%");
    if (share.solar_fraction > 0.0 && !phys_->hasSolar())
        return Status::error(ErrorCode::NoSolar,
                             "Ecovisor::tryAddApp: solar share without a "
                             "solar array");
    if (share.battery) {
        if (!phys_->hasBattery())
            return Status::error(ErrorCode::NoBattery,
                                 "Ecovisor::tryAddApp: battery share "
                                 "without a battery");
        const auto &pb = phys_->battery().config();
        if (cap_total > pb.capacity_wh + 1e-9)
            return Status::error(ErrorCode::ShareViolation,
                                 "Ecovisor::tryAddApp: battery capacity "
                                 "oversubscribed");
        if (charge_total > pb.max_charge_w + 1e-9)
            return Status::error(ErrorCode::ShareViolation,
                                 "Ecovisor::tryAddApp: battery charge "
                                 "rate oversubscribed");
        if (discharge_total > pb.max_discharge_w + 1e-9)
            return Status::error(ErrorCode::ShareViolation,
                                 "Ecovisor::tryAddApp: battery discharge "
                                 "oversubscribed");
    }

    // The VES constructor validates per-app config (fraction range,
    // grid limit, battery parameters) by throwing; convert to the
    // structured error model here so tenant input can never throw
    // through the v2 surface.
    try {
        VirtualEnergySystem probe(app, share);
    } catch (const FatalError &e) {
        return Status::error(ErrorCode::InvalidArgument, e.what());
    }
    return Status::okStatus();
}

Result<AppHandle>
Ecovisor::tryAddApp(const std::string &app, const AppShareConfig &share)
{
    const Status valid = checkApp(app, share);
    if (!valid.ok())
        return valid;

    AppState st;
    st.name = app;
    // Intern the name in the COP now so every later container walk
    // (settlement, telemetry, EcoLib) is index-addressed.
    st.cop_app = cluster_->internApp(app);
    st.solar_fraction = share.solar_fraction;
    st.ves = std::make_unique<VirtualEnergySystem>(app, share);

    // Intern every per-app telemetry series now (registration is the
    // one-time setup path) so per-tick recording never touches a
    // string key. BattSoc is interned even without a battery share —
    // it just stays empty, which the query surface hides.
    st.series.power = db_.intern("app_power_w", app);
    st.series.grid = db_.intern("app_grid_w", app);
    st.series.solar_used = db_.intern("app_solar_used_w", app);
    st.series.batt_discharge = db_.intern("app_batt_discharge_w", app);
    st.series.batt_charge = db_.intern("app_batt_charge_w", app);
    st.series.carbon = db_.intern("app_carbon_g", app);
    st.series.soc = db_.intern("app_batt_soc", app);
    st.series.containers = db_.intern("app_containers", app);
    for (ts::SeriesId id :
         {st.series.power, st.series.grid, st.series.solar_used,
          st.series.batt_discharge, st.series.batt_charge,
          st.series.carbon, st.series.soc, st.series.containers})
        reserveExpected(id);

    const auto idx = static_cast<std::int32_t>(apps_.size());
    apps_.push_back(std::move(st));
    index_.emplace(app, idx);
    // Apps are never removed, so registration is the only change the
    // canonical (sorted-by-name) settle order ever sees.
    settle_order_.insert(
        std::lower_bound(settle_order_.begin(), settle_order_.end(), app,
                         [this](std::int32_t i, const std::string &name) {
                             return apps_[static_cast<std::size_t>(i)]
                                        .name < name;
                         }),
        idx);
    return AppHandle(idx);
}

Result<AppHandle>
Ecovisor::findApp(std::string_view app) const
{
    auto it = index_.find(app);
    if (it == index_.end())
        return unknownApp(app);
    return AppHandle(it->second);
}

Result<std::string>
Ecovisor::appName(AppHandle h) const
{
    const AppState *st = state(h);
    if (!st)
        return invalidHandle();
    return st->name;
}

std::vector<std::string>
Ecovisor::appNames() const
{
    std::vector<std::string> out;
    out.reserve(index_.size());
    for (const auto &kv : index_)
        out.push_back(kv.first);
    return out;
}

Ecovisor::AppState *
Ecovisor::state(AppHandle h)
{
    if (!h.valid() ||
        static_cast<std::size_t>(h.index()) >= apps_.size())
        return nullptr;
    return &apps_[static_cast<std::size_t>(h.index())];
}

const Ecovisor::AppState *
Ecovisor::state(AppHandle h) const
{
    if (!h.valid() ||
        static_cast<std::size_t>(h.index()) >= apps_.size())
        return nullptr;
    return &apps_[static_cast<std::size_t>(h.index())];
}

// ---------------------------------------------------------------------
// Setters.
// ---------------------------------------------------------------------

Status
Ecovisor::setBatteryChargeRate(AppHandle h, double rate_w)
{
    AppState *st = state(h);
    if (!st)
        return invalidHandle();
    // The VES owns the rate validation (negative/NaN rejection) and
    // its message; convert its throw to the structured error model.
    try {
        st->ves->setChargeRateW(rate_w);
    } catch (const FatalError &e) {
        return Status::error(ErrorCode::InvalidArgument, e.what());
    }
    return Status::okStatus();
}

Status
Ecovisor::setBatteryMaxDischarge(AppHandle h, double rate_w)
{
    AppState *st = state(h);
    if (!st)
        return invalidHandle();
    try {
        st->ves->setMaxDischargeW(rate_w);
    } catch (const FatalError &e) {
        return Status::error(ErrorCode::InvalidArgument, e.what());
    }
    return Status::okStatus();
}

Status
Ecovisor::setContainerPowercap(ContainerHandle c, double cap_w)
{
    // O(1) slab resolution: an invalid handle and a handle whose
    // container was destroyed (generation mismatch) fail identically.
    if (!cluster_->live(c.ref()))
        return Status::error(ErrorCode::UnknownContainer,
                             "Ecovisor::setContainerPowercap: unknown "
                             "container");
    if (cap_w < 0.0 || std::isnan(cap_w))
        return Status::error(ErrorCode::InvalidArgument,
                             "Ecovisor::setContainerPowercap: negative "
                             "cap");
    cluster_->setPowerCap(c.ref(), cap_w);
    return Status::okStatus();
}

Status
Ecovisor::applyCapBatch(const api::CapBatch &batch)
{
    // Validate the whole batch before staging anything: a rejected
    // batch must leave no trace (all-or-nothing semantics).
    for (const auto &req : batch.requests()) {
        if (!cluster_->live(req.container.ref()))
            return Status::error(ErrorCode::UnknownContainer,
                                 "Ecovisor::applyCapBatch: unknown "
                                 "container");
        if (req.cap_w < 0.0 || std::isnan(req.cap_w))
            return Status::error(ErrorCode::InvalidArgument,
                                 "Ecovisor::applyCapBatch: negative "
                                 "cap");
    }
    staged_caps_.insert(staged_caps_.end(), batch.requests().begin(),
                        batch.requests().end());
    return Status::okStatus();
}

void
Ecovisor::commitStagedCaps()
{
    for (const auto &req : staged_caps_) {
        // A container revoked between staging and settlement is
        // skipped: its cap died with its slot. The generation check
        // also skips a recycled slot, so a cap staged for a dead
        // container can never leak onto its successor.
        if (cluster_->live(req.container.ref()))
            cluster_->setPowerCap(req.container.ref(), req.cap_w);
    }
    staged_caps_.clear();
}

// ---------------------------------------------------------------------
// Getters.
// ---------------------------------------------------------------------

TimeS
Ecovisor::currentTime() const
{
    // During a tick, dispatchTickCallbacks()/settleTick() record the
    // tick's start; between runs fall back to the tick after the last
    // settlement (signals are piecewise constant per tick).
    return std::max({now_hint_s_, last_settled_s_ + last_dt_s_,
                     TimeS{0}});
}

double
Ecovisor::siteSolarWNow() const
{
    // Sensor blackout: serve the last settled reading, never a live
    // (or extrapolated) one — the snapshot's stale flag tells the
    // tenant what it is getting (docs/FAULTS.md). Outside a blackout
    // the live value reflects any active derate, because the derated
    // array *is* what the site's sensors would measure.
    if (faults_.sensor_blackout)
        return last_site_solar_w_;
    double solar_w = phys_->solarPowerAt(currentTime());
    if (faults_.solar_derate != 1.0)
        solar_w *= faults_.solar_derate;
    return solar_w;
}

double
Ecovisor::getGridCarbon() const
{
    if (faults_.sensor_blackout)
        return last_intensity_;
    return phys_->gridCarbonAt(currentTime());
}

Result<double>
Ecovisor::getSolarPower(AppHandle h) const
{
    const AppState *st = state(h);
    if (!st)
        return invalidHandle();
    return st->solar_fraction * siteSolarWNow();
}

Result<double>
Ecovisor::getGridPower(AppHandle h) const
{
    const AppState *st = state(h);
    if (!st)
        return invalidHandle();
    return st->ves->lastSettlement().grid_w;
}

Result<double>
Ecovisor::getBatteryDischargeRate(AppHandle h) const
{
    const AppState *st = state(h);
    if (!st)
        return invalidHandle();
    return st->ves->lastSettlement().batt_discharge_w;
}

Result<double>
Ecovisor::getBatteryChargeLevel(AppHandle h) const
{
    const AppState *st = state(h);
    if (!st)
        return invalidHandle();
    return st->ves->hasBattery() ? st->ves->battery().energyWh() : 0.0;
}

Result<double>
Ecovisor::getContainerPowercap(ContainerHandle c) const
{
    if (!cluster_->live(c.ref()))
        return Status::error(ErrorCode::UnknownContainer,
                             "Ecovisor::getContainerPowercap: unknown "
                             "container");
    return cluster_->powerCap(c.ref()); // kNoPowerCap == kUnlimitedW
}

Result<double>
Ecovisor::getContainerPower(ContainerHandle c) const
{
    if (!cluster_->live(c.ref()))
        return Status::error(ErrorCode::UnknownContainer,
                             "Ecovisor::getContainerPower: unknown "
                             "container");
    return cluster_->containerPowerW(c.ref());
}

Result<api::EnergySnapshot>
Ecovisor::getEnergySnapshot(AppHandle h) const
{
    const AppState *st = state(h);
    if (!st)
        return invalidHandle();
    const TickSettlement &s = st->ves->lastSettlement();
    api::EnergySnapshot snap;
    snap.solar_w = st->solar_fraction * siteSolarWNow();
    snap.grid_carbon_g_per_kwh = getGridCarbon();
    snap.stale = faults_.sensor_blackout;
    snap.grid_w = s.grid_w;
    snap.battery_discharge_w = s.batt_discharge_w;
    snap.battery_charge_level_wh =
        st->ves->hasBattery() ? st->ves->battery().energyWh() : 0.0;
    return snap;
}

Status
Ecovisor::registerTickCallback(AppHandle h, TickCallback cb)
{
    if (!cb)
        return Status::error(ErrorCode::InvalidArgument,
                             "Ecovisor::registerTickCallback: null "
                             "callback");
    AppState *st = state(h);
    if (!st)
        return invalidHandle();
    st->callbacks.push_back(std::move(cb));
    ++callback_count_;
    return Status::okStatus();
}

const VirtualEnergySystem *
Ecovisor::ves(AppHandle h) const
{
    const AppState *st = state(h);
    return st ? st->ves.get() : nullptr;
}

cop::AppIndex
Ecovisor::copAppIndex(api::AppHandle h) const
{
    const AppState *st = state(h);
    return st ? st->cop_app : cop::kInvalidApp;
}

Result<ts::SeriesId>
Ecovisor::appSeriesId(api::AppHandle h, api::AppMetric m) const
{
    const AppState *st = state(h);
    if (!st)
        return invalidHandle();
    switch (m) {
      case api::AppMetric::PowerW:
        return st->series.power;
      case api::AppMetric::GridW:
        return st->series.grid;
      case api::AppMetric::SolarUsedW:
        return st->series.solar_used;
      case api::AppMetric::BattDischargeW:
        return st->series.batt_discharge;
      case api::AppMetric::BattChargeW:
        return st->series.batt_charge;
      case api::AppMetric::CarbonG:
        return st->series.carbon;
      case api::AppMetric::BattSoc:
        return st->series.soc;
      case api::AppMetric::Containers:
        return st->series.containers;
    }
    return Status::error(ErrorCode::InvalidArgument,
                         "Ecovisor::appSeriesId: unknown metric");
}

Result<ts::SeriesId>
Ecovisor::containerSeriesId(api::ContainerHandle c,
                            api::ContainerMetric m)
{
    const cop::ContainerId id = cluster_->idOf(c.ref());
    if (id == cop::kInvalidContainer)
        return Status::error(ErrorCode::UnknownContainer,
                             "Ecovisor::containerSeriesId: unknown "
                             "container");
    ensureContainerSeries(id, c.ref().slot);
    const cop::SlotSeriesCache &cache =
        cluster_->seriesCache(c.ref().slot);
    switch (m) {
      case api::ContainerMetric::PowerW:
        return static_cast<ts::SeriesId>(cache.power);
      case api::ContainerMetric::CarbonG:
        return static_cast<ts::SeriesId>(cache.carbon);
    }
    return Status::error(ErrorCode::InvalidArgument,
                         "Ecovisor::containerSeriesId: unknown metric");
}

// ---------------------------------------------------------------------
// Tick dispatch + settlement.
// ---------------------------------------------------------------------

void
Ecovisor::attach(sim::Simulation &simulation)
{
    // Clock hint first: getters called from any later phase of this
    // tick (including policies registered directly with the
    // simulation) evaluate signals at the tick's start time.
    simulation.addListener(
        [this](TimeS start_s, TimeS) { now_hint_s_ = start_s; },
        sim::TickPhase::Environment, "ecovisor-clock");
    simulation.addListener(
        [this](TimeS start_s, TimeS dt_s) {
            dispatchTickCallbacks(start_s, dt_s);
        },
        sim::TickPhase::Policy, "ecovisor-upcalls");
    simulation.addListener(
        [this](TimeS start_s, TimeS dt_s) { settleTick(start_s, dt_s); },
        sim::TickPhase::Accounting, "ecovisor-settle");
}

void
Ecovisor::dispatchTickCallbacks(TimeS start_s, TimeS dt_s)
{
    now_hint_s_ = start_s;
    // Remote tenants register no upcalls: skip the walk altogether.
    if (callback_count_ == 0)
        return;
    // Re-resolve apps_[idx] on every access instead of holding a
    // reference: a callback may legally call tryAddApp(), which can
    // reallocate the contiguous app vector mid-dispatch (index_ map
    // nodes are stable, so the outer iteration is safe either way).
    for (const auto &kv : index_) {
        const auto idx = static_cast<std::size_t>(kv.second);
        for (std::size_t i = 0; i < apps_[idx].callbacks.size(); ++i)
            apps_[idx].callbacks[i](start_s, dt_s);
    }
}

void
Ecovisor::settleApp(AppState &st, double solar_w, double intensity,
                    TimeS start_s, TimeS dt_s,
                    const SettleLimits &limits)
{
    // appPowerW walks only this app's container list, streaming the
    // slab's SoA hot columns (cop/columns.h; O(1) when its cached
    // aggregate is clean); with sharded settlement each app — and
    // therefore each COP-side aggregate cache — belongs to exactly
    // one worker, so the walk is race-free.
    const double app_solar_w = st.solar_fraction * solar_w;
    const double demand_w = cluster_->appPowerW(st.cop_app);
    st.ves->settle(demand_w, app_solar_w, intensity, start_s, dt_s,
                   limits);
}

bool
Ecovisor::applyEmergencyCaps(double site_solar_w, TimeS dt_s)
{
    // Recomputed from scratch each outage tick: Cluster::applyPowerCaps()
    // just above lifted last tick's emergency caps, which would
    // otherwise compound (a capped container reports less power,
    // shrinking next tick's budget).
    bool any_capped = false;
    for (std::int32_t idx : settle_order_) {
        AppState &st = apps_[static_cast<std::size_t>(idx)];
        // The islanded budget: owned solar plus whatever the app's
        // battery may discharge this tick. An exact bound — if the
        // budget cannot serve the demand, the demand is cut, never
        // optimistically carried.
        double avail_w = st.solar_fraction * site_solar_w;
        if (st.ves->hasBattery() && !faults_.battery_offline) {
            const energy::Battery &b = st.ves->battery();
            avail_w += std::min(st.ves->maxDischargeW(),
                                b.maxDischargePowerW(dt_s));
        }
        const double demand_w = cluster_->appPowerW(st.cop_app);
        if (demand_w <= 0.0 || demand_w <= avail_w)
            continue;
        cluster_->shedApp(st.cop_app, avail_w / demand_w);
        any_capped = true;
    }
    return any_capped;
}

void
Ecovisor::settleTick(TimeS start_s, TimeS dt_s)
{
    if (dt_s <= 0)
        fatal("Ecovisor::settleTick: non-positive tick");
    now_hint_s_ = start_s;

    // Fault plane first: resolve the tick's active fault set from the
    // armed schedule (fault::FaultInjector) before the transport
    // commit point runs, so tenant requests committed this tick
    // already observe the tick's faults. No hook, no faults — and no
    // cost (docs/FAULTS.md).
    if (fault_hook_)
        fault_hook_(start_s, dt_s);

    // Pre-settle hook: a transport front-end (net::ServerCore) commits
    // its per-tick coalesced tenant requests here, in its own canonical
    // order, before anything below reads cluster or cap state. Runs
    // sequentially, so the hook may freely call the v2 surface —
    // including applyCapBatch(), whose staged entries then commit in
    // this very tick via commitStagedCaps() below.
    if (pre_settle_hook_)
        pre_settle_hook_(start_s, dt_s);

    // Commit any staged CapBatch, then re-apply watt caps (allocations
    // may have changed this tick) and lift last tick's emergency caps.
    commitStagedCaps();
    cluster_->applyPowerCaps();

    double solar_w = phys_->solarPowerAt(start_s);
    const double intensity = phys_->gridCarbonAt(start_s);

    // Arm this tick's fault limits. Every branch below is false on
    // the healthy path, leaving the arithmetic untouched — the fault
    // plane is bit-identical zero-cost until a schedule arms it.
    SettleLimits limits;
    const bool degraded = faults_.any();
    if (degraded) {
        if (faults_.solar_derate != 1.0)
            solar_w *= faults_.solar_derate;
        limits.grid_available = !faults_.grid_out;
        limits.battery_available = !faults_.battery_offline;
        limits.battery_capacity_factor = faults_.battery_capacity_factor;
        ++degraded_ticks_;
    }

    // Grid outage: clamp demand to each app's grid-safe budget before
    // settlement reads container power. applyPowerCaps() above lifted
    // last tick's clamps, so the first healthy tick settles without.
    const bool emergency =
        degraded && faults_.grid_out && applyEmergencyCaps(solar_w, dt_s);

    // Per-app settlement is independent (disjoint VES + COP state),
    // so shard it across the pool. Every cross-app reduction below
    // runs sequentially in canonical order after the join, which is
    // what keeps results bit-identical at any ECOV_THREADS value.
    runSharded([&](AppState &st) {
        settleApp(st, solar_w, intensity, start_s, dt_s, limits);
    });

    double owned_solar_fraction = 0.0;
    double total_grid_w = 0.0;
    double total_curtailed_w = 0.0;
    double total_unserved_w = 0.0;

    for (std::int32_t idx : settle_order_) {
        const AppState &st = apps_[static_cast<std::size_t>(idx)];
        owned_solar_fraction += st.solar_fraction;
        const TickSettlement &s = st.ves->lastSettlement();
        total_grid_w += s.grid_w;
        total_curtailed_w += s.curtailed_w;
        total_unserved_w += s.unserved_w;
    }

    if (total_unserved_w > 0.0)
        unserved_wh_ += energyWh(total_unserved_w, dt_s);
    if (emergency || total_unserved_w > 0.0)
        ++slo_violation_ticks_;

    // Solar not owned by any app is excess by definition.
    total_curtailed_w += (1.0 - owned_solar_fraction) * solar_w;

    // Excess-solar policy (§3.1: reclaim & redistribute, net meter,
    // or curtail).
    if (total_curtailed_w > 1e-12) {
        if (options_.excess_solar == ExcessSolarPolicy::Redistribute) {
            for (std::int32_t idx : settle_order_) {
                if (total_curtailed_w <= 1e-12)
                    break;
                double took =
                    apps_[static_cast<std::size_t>(idx)]
                        .ves->absorbRedistributedSolar(
                            total_curtailed_w, dt_s);
                total_curtailed_w -= took;
            }
            curtailed_wh_ += energyWh(total_curtailed_w, dt_s);
        } else if (options_.excess_solar == ExcessSolarPolicy::NetMeter) {
            net_metered_wh_ += energyWh(total_curtailed_w, dt_s);
        } else {
            curtailed_wh_ += energyWh(total_curtailed_w, dt_s);
        }
    }

    // Meter the aggregate grid draw (global energy + carbon books).
    if (phys_->hasGrid() && total_grid_w > 0.0)
        phys_->grid()->draw(total_grid_w, start_s, dt_s);

    // Mirror the aggregate virtual battery state into the physical
    // bank so its SOC stays consistent with the sum of shares.
    if (phys_->hasBattery())
        phys_->battery().setEnergyWh(aggregateBatteryWh());

    last_settled_s_ = start_s;
    last_dt_s_ = dt_s;
    // The blackout staleness source: the exact values this settlement
    // used (including any derate), never re-evaluated later.
    last_site_solar_w_ = solar_w;
    last_intensity_ = intensity;

    if (options_.record_telemetry)
        recordTelemetry(start_s);
    // After recording: a series interned during tick k still has all
    // expected_ticks - k of its appends ahead of it.
    ++settled_ticks_;
}

// ---------------------------------------------------------------------
// Checkpoint/restore.
// ---------------------------------------------------------------------

EcovisorImage
Ecovisor::captureState() const
{
    if (!staged_caps_.empty())
        fatal("Ecovisor::captureState: staged caps pending (snapshot "
              "only at a tick boundary)");
    EcovisorImage img;
    img.apps.reserve(apps_.size());
    for (const AppState &st : apps_) {
        EcovisorImage::AppImage ai;
        ai.name = st.name;
        ai.share = st.ves->share();
        ai.ves = st.ves->captureState();
        img.apps.push_back(std::move(ai));
    }
    img.powercaps = cluster_->powerCaps();
    for (std::int32_t idx : settle_order_)
        cluster_->forEachAppContainer(
            apps_[static_cast<std::size_t>(idx)].cop_app,
            [&](cop::ContainerId id, cop::ContainerRef ref) {
                if (cluster_->emergencyCapped(ref))
                    img.emergency_capped.push_back(id);
            });
    img.degraded_ticks = degraded_ticks_;
    img.slo_violation_ticks = slo_violation_ticks_;
    img.unserved_wh = unserved_wh_;
    img.net_metered_wh = net_metered_wh_;
    img.curtailed_wh = curtailed_wh_;
    img.last_settled_s = last_settled_s_;
    img.last_dt_s = last_dt_s_;
    img.last_site_solar_w = last_site_solar_w_;
    img.last_intensity = last_intensity_;
    img.settled_ticks = settled_ticks_;
    return img;
}

void
Ecovisor::restoreState(const EcovisorImage &image)
{
    if (!apps_.empty())
        fatal("Ecovisor::restoreState: apps already registered "
              "(restore targets a fresh instance)");
    // settled_ticks_ first: reserveExpected sizes each re-interned
    // series for the horizon still ahead, not the whole run.
    settled_ticks_ = image.settled_ticks;
    for (const EcovisorImage::AppImage &ai : image.apps) {
        auto r = tryAddApp(ai.name, ai.share);
        if (!r.ok())
            fatal("Ecovisor::restoreState: re-registration failed: " +
                  r.status().message());
        apps_[static_cast<std::size_t>(r.value().index())]
            .ves->restoreState(ai.ves);
    }
    // The cluster was restored first, so every captured id is live.
    for (const auto &[id, cap_w] : image.powercaps)
        cluster_->restorePowerCap(id, cap_w);
    for (cop::ContainerId id : image.emergency_capped)
        cluster_->restoreEmergencyCap(id);
    degraded_ticks_ = image.degraded_ticks;
    slo_violation_ticks_ = image.slo_violation_ticks;
    unserved_wh_ = image.unserved_wh;
    net_metered_wh_ = image.net_metered_wh;
    curtailed_wh_ = image.curtailed_wh;
    last_settled_s_ = image.last_settled_s;
    last_dt_s_ = image.last_dt_s;
    last_site_solar_w_ = image.last_site_solar_w;
    last_intensity_ = image.last_intensity;
    now_hint_s_ = image.last_settled_s;
}

double
Ecovisor::aggregateBatteryWh() const
{
    double total = 0.0;
    for (const auto &st : apps_) {
        if (st.ves->hasBattery())
            total += st.ves->battery().energyWh();
    }
    return total;
}

void
Ecovisor::ensureContainerSeries(cop::ContainerId id, std::int32_t slot)
{
    cop::SlotSeriesCache &cache = cluster_->seriesCache(slot);
    const std::uint32_t generation = cluster_->slotGeneration(slot);
    if (cache.generation == generation && cache.power >= 0)
        return;
    // First sight of this container (or of this slot incarnation):
    // the one place the per-container string key is ever built —
    // once per container lifetime, not per tick.
    const std::string tag = std::to_string(id);
    cache.power = db_.intern("container_power_w", tag);
    cache.carbon = db_.intern("container_carbon_g", tag);
    cache.generation = generation;
    reserveExpected(static_cast<ts::SeriesId>(cache.power));
    reserveExpected(static_cast<ts::SeriesId>(cache.carbon));
}

void
Ecovisor::recordApp(const AppState &st, TimeS start_s)
{
    const auto &s = st.ves->lastSettlement();
    db_.append(st.series.power, start_s, s.demand_w);
    db_.append(st.series.grid, start_s, s.grid_w);
    db_.append(st.series.solar_used, start_s, s.solar_used_w);
    db_.append(st.series.batt_discharge, start_s, s.batt_discharge_w);
    db_.append(st.series.batt_charge, start_s,
               s.batt_charge_solar_w + s.batt_charge_grid_w);
    db_.append(st.series.carbon, start_s, s.carbon_g);
    if (st.ves->hasBattery())
        db_.append(st.series.soc, start_s, st.ves->battery().soc());
    db_.append(st.series.containers, start_s,
               static_cast<double>(
                   cluster_->appContainerCount(st.cop_app)));

    // Per-container power and attributed carbon: the container's
    // carbon share is proportional to its share of app demand
    // (PowerAPI-style attribution backing Table 2's
    // get_container_energy/get_container_carbon). Series ids come
    // from the slot cache the resolve pass filled; everything here is
    // app-local, which is what makes this function shardable.
    cluster_->forEachAppContainer(
        st.cop_app, [&](cop::ContainerId, cop::ContainerRef ref) {
            const cop::SlotSeriesCache &cache =
                cluster_->seriesCache(ref.slot);
            double p_w = cluster_->containerPowerW(ref);
            db_.append(cache.power, start_s, p_w);
            double share = s.demand_w > 1e-12 ? p_w / s.demand_w : 0.0;
            db_.append(cache.carbon, start_s, s.carbon_g * share);
        });
}

void
Ecovisor::recordTelemetry(TimeS start_s)
{
    // Globals are cross-app state: always sequential, before the
    // shards start.
    db_.append(s_grid_carbon_, start_s, phys_->gridCarbonAt(start_s));
    db_.append(s_solar_w_, start_s, phys_->solarPowerAt(start_s));
    db_.append(s_cluster_power_, start_s, cluster_->totalPowerW());

    // Sequential resolve pass: intern series for any container that
    // appeared (or whose slot was recycled) since its last recorded
    // tick. Interning mutates the shared store, so it must finish
    // before the shards run; in steady state this pass is a
    // generation compare per live container and nothing else.
    for (std::int32_t idx : settle_order_)
        cluster_->forEachAppContainer(
            apps_[static_cast<std::size_t>(idx)].cop_app,
            [&](cop::ContainerId id, cop::ContainerRef ref) {
                ensureContainerSeries(id, ref.slot);
            });

    // Per-app appends, sharded exactly like settlement: each app's
    // series set is disjoint (per-app series plus its own containers'
    // series), every series takes exactly one append per tick, and
    // ticks are sequential — so append order within every series is
    // independent of the shard count and results are bit-identical
    // at any ECOV_THREADS value.
    runSharded([&](AppState &st) { recordApp(st, start_s); });
}

} // namespace ecov::core
