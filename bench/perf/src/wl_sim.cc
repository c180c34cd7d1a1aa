/**
 * @file
 * The in-process workloads: sim_tenants and sim_policy.
 *
 * Tenant calls run between ticks, from the benchmark's loop, so every
 * span around them is a call into one layer's public surface.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/ecolib.h"
#include "util/rng.h"
#include "workloads.h"
#include "world.h"

namespace ecoperf {

using namespace ecov;

namespace {

core::EcovisorOptions
singleThread(core::ExcessSolarPolicy policy, bool telemetry)
{
    core::EcovisorOptions o;
    o.excess_solar = policy;
    o.record_telemetry = telemetry;
    o.threads = 1;
    return o;
}

// ---------------------------------------------------------------------
// sim_tenants: 256 tenants x 3 churning containers, telemetry off.
// ---------------------------------------------------------------------

constexpr int kTenants = 256;
constexpr int kPool = 3;
constexpr double kChurn = 0.05;

struct TenantsWorld
{
    Rig rig;
    sim::Simulation simul{kTickS};
    std::unique_ptr<PhaseMarkers> markers;
    std::vector<api::AppHandle> apps;
    /** Each tenant's containers, oldest first, and their handles. */
    std::vector<std::vector<cop::ContainerId>> pools;
    std::vector<std::vector<api::ContainerHandle>> handles;
    std::vector<int> phase;

    TenantsWorld(std::uint64_t seed, bool trace)
        : rig(kTenants,
              singleThread(core::ExcessSolarPolicy::Curtail, false)),
          pools(kTenants), handles(kTenants)
    {
        Rng gen(seed);
        for (int a = 0; a < kTenants; ++a) {
            const std::string name = tenantName(a);
            apps.push_back(
                rig.eco.tryAddApp(name, tenantShare(kTenants)).value());
            for (int c = 0; c < kPool; ++c)
                spawn(a);
            phase.push_back(static_cast<int>(gen.uniformInt(0, 96)));
        }
        rig.eco.attach(simul);
        if (trace)
            markers = std::make_unique<PhaseMarkers>(simul);
    }

    void
    spawn(int a)
    {
        const cop::ContainerId id =
            rig.cluster.createContainer(tenantName(a), 1.0).value();
        pools[a].push_back(id);
        handles[a].push_back(api::handleOf(rig.cluster, id));
    }

    /** Replace tenant a's oldest container with a new one. */
    void
    churn(int a)
    {
        rig.cluster.destroyContainer(pools[a].front());
        pools[a].erase(pools[a].begin());
        handles[a].erase(handles[a].begin());
        spawn(a);
    }
};

} // namespace

RunResult
runSimTenants(const RunOptions &opt)
{
    RunResult r;
    const std::int64_t check_tick = checkTick(opt, 4096);
    const auto build = [&] {
        return std::make_unique<TenantsWorld>(opt.seed, opt.trace);
    };
    std::unique_ptr<TenantsWorld> w;
    for (int i = 0; i < kSetups; ++i) {
        w.reset();
        w = timedSetUp(&r, build);
    }
    trimHeap();

    core::Ecovisor &eco = w->rig.eco;
    Rng gen(opt.seed + 1);
    api::CapBatch batch;
    std::vector<std::int64_t> submitted;
    int bad_snapshots = 0;
    int failed_batches = 0;

    Window win(opt, &r);
    std::int64_t tick = 0;
    while (win.open(tick < check_tick)) {
        // Every tenant reads its Table-1 state. One call takes tens of
        // nanoseconds, so the read timed is the whole phase.
        const std::int64_t reads_start = nowNs();
        for (int a = 0; a < kTenants; ++a) {
            api::Result<api::EnergySnapshot> snap = [&] {
                SpanScope span(Span::ApiSnapshot);
                return eco.getEnergySnapshot(w->apps[a]);
            }();
            ++r.attempted;
            if (!snap.ok())
                ++r.failed;
            else if (!(snap.value().battery_charge_level_wh >= 0.0))
                ++bad_snapshots;
        }
        r.read_ns.add(static_cast<double>(nowNs() - reads_start));

        // A rotating eighth of the tenants re-cap their containers.
        // Each batch commits at this tick's settlement: its latency
        // runs from submission to the end of the step.
        submitted.clear();
        for (int a = static_cast<int>(tick & 7); a < kTenants; a += 8) {
            batch.clear();
            for (const api::ContainerHandle &h : w->handles[a])
                batch.add(h, gen.uniform(2.0, 6.0));
            submitted.push_back(nowNs());
            api::Status st = [&] {
                SpanScope span(Span::ApiCapBatch);
                return eco.applyCapBatch(batch);
            }();
            ++r.attempted;
            if (!st.ok()) {
                ++r.failed;
                ++failed_batches;
            }
        }

        // The workload: churn, then this tick's demand.
        for (int a = 0; a < kTenants; ++a) {
            if (gen.bernoulli(kChurn)) {
                SpanScope span(Span::CopChurn);
                w->churn(a);
            }
            for (int c = 0; c < kPool; ++c) {
                SpanScope span(Span::CopSetDemand);
                w->rig.cluster.setDemand(
                    w->pools[a][c], demandAt(tick, a, c, w->phase[a]));
            }
        }

        {
            SpanScope span(Span::SimStep);
            w->simul.step();
        }
        const std::int64_t settled = nowNs();
        for (std::int64_t t : submitted)
            r.mut_ns.add(static_cast<double>(settled - t));
        win.unitDone();
        tick = w->simul.clock().tickCount();
        atCheckTick(eco, tick, check_tick, &r);
    }
    tracer().set(Count::SimTicks, static_cast<double>(win.units()));
    tracer().set(Count::TraceOverheadFrac, win.overheadFrac());
    tracer().set(Count::ApiCapBatchFailed, failed_batches);
    r.expect(bad_snapshots == 0, std::to_string(bad_snapshots) +
                                     " snapshots read a negative or "
                                     "NaN battery level");
    checkWorld(eco, kPool, &r);
    return r;
}

// ---------------------------------------------------------------------
// sim_policy: 16 tenants x 64 containers under EcoLib carbon rates,
// telemetry on and bounded, excess solar redistributed.
// ---------------------------------------------------------------------

namespace {

constexpr int kPolicyTenants = 16;
constexpr int kPolicyPool = 64;

/** A carbon rate (g/s) that binds at some intensities, not others. */
double
carbonRate(Rng &gen)
{
    return gen.uniform(0.002, 0.02);
}

struct PolicyWorld
{
    Rig rig;
    sim::Simulation simul{kTickS};
    std::vector<std::vector<cop::ContainerId>> pools;
    std::vector<std::unique_ptr<core::EcoLib>> libs;
    std::vector<int> phase;
    std::unique_ptr<PhaseMarkers> markers;

    static core::EcovisorOptions
    options()
    {
        core::EcovisorOptions o =
            singleThread(core::ExcessSolarPolicy::Redistribute, true);
        o.retention_samples = 120;
        return o;
    }

    PolicyWorld(std::uint64_t seed, bool trace)
        : rig(kPolicyTenants * kPolicyPool / 8, options()),
          pools(kPolicyTenants)
    {
        Rng gen(seed);
        for (int a = 0; a < kPolicyTenants; ++a) {
            const std::string name = tenantName(a);
            rig.eco.tryAddApp(name, tenantShare(kPolicyTenants)).value();
            for (int c = 0; c < kPolicyPool; ++c)
                pools[a].push_back(
                    rig.cluster.createContainer(name, 1.0).value());
            libs.push_back(std::make_unique<core::EcoLib>(&rig.eco, name));
            libs.back()->setCarbonRate(carbonRate(gen));
            phase.push_back(static_cast<int>(gen.uniformInt(0, 96)));
        }
        rig.eco.attach(simul);
        if (trace)
            markers = std::make_unique<PhaseMarkers>(simul);
    }
};

} // namespace

RunResult
runSimPolicy(const RunOptions &opt)
{
    RunResult r;
    const std::int64_t check_tick = checkTick(opt, 1024);
    const auto build = [&] {
        return std::make_unique<PolicyWorld>(opt.seed, opt.trace);
    };
    std::unique_ptr<PolicyWorld> w;
    for (int i = 0; i < kSetups; ++i) {
        w.reset();
        w = timedSetUp(&r, build);
    }
    trimHeap();

    Rng gen(opt.seed + 1);
    std::vector<std::int64_t> submitted;
    double sink = 0.0;

    Window win(opt, &r);
    std::int64_t tick = 0;
    while (win.open(tick < check_tick)) {
        // Each tenant reads its last hour: app carbon, then every
        // container's energy. As in sim_tenants, the read timed is the
        // whole phase.
        const TimeS now_s = w->simul.now();
        const TimeS from_s = std::max<TimeS>(0, now_s - 3600);
        const std::int64_t reads_start = nowNs();
        for (int a = 0; a < kPolicyTenants; ++a) {
            const core::EcoLib &lib = *w->libs[a];
            for (int q = 0; q <= kPolicyPool; ++q) {
                SpanScope span(Span::TelemetryQuery);
                sink += q == 0 ? lib.getAppCarbonG(from_s, now_s)
                               : lib.getContainerEnergyWh(
                                     w->pools[a][q - 1], from_s, now_s);
            }
            r.attempted += kPolicyPool + 1;
        }
        r.read_ns.add(static_cast<double>(nowNs() - reads_start));

        // A rotating quarter of the tenants change their carbon rate;
        // the library enforces it in this tick's Policy phase.
        submitted.clear();
        for (int a = static_cast<int>(tick & 3); a < kPolicyTenants;
             a += 4) {
            submitted.push_back(nowNs());
            w->libs[a]->setCarbonRate(carbonRate(gen));
            ++r.attempted;
        }

        for (int a = 0; a < kPolicyTenants; ++a)
            for (int c = 0; c < kPolicyPool; ++c) {
                SpanScope span(Span::CopSetDemand);
                w->rig.cluster.setDemand(
                    w->pools[a][c], demandAt(tick, a, c, w->phase[a]));
            }

        {
            SpanScope span(Span::SimStep);
            w->simul.step();
        }
        const std::int64_t settled = nowNs();
        for (std::int64_t t : submitted)
            r.mut_ns.add(static_cast<double>(settled - t));
        win.unitDone();
        tick = w->simul.clock().tickCount();
        atCheckTick(w->rig.eco, tick, check_tick, &r);
    }
    tracer().set(Count::SimTicks, static_cast<double>(win.units()));
    tracer().set(Count::TraceOverheadFrac, win.overheadFrac());
    r.expect(std::isfinite(sink) && sink >= 0.0,
             "telemetry queries returned a negative or NaN total");
    checkWorld(w->rig.eco, kPolicyPool, &r);
    return r;
}

} // namespace ecoperf
