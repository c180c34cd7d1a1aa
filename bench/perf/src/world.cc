#include "world.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "host_ref.h"

namespace ecoperf {

using namespace ecov;

Rig::Rig(int nodes, const core::EcovisorOptions &options)
    : signal({{0, 100.0}, {3600, 300.0}, {7200, 50.0}}, 10800),
      grid(&signal),
      solar({{0, 0.0}, {6 * 3600, 200.0}, {18 * 3600, 0.0}}, 24 * 3600),
      cluster(nodes, power::ServerPowerConfig{8, 1.35, 5.0, 0.0}),
      phys(&grid, &solar, energy::BatteryConfig{}),
      eco(&cluster, &phys, options)
{}

PhaseMarkers::PhaseMarkers(sim::Simulation &simul)
{
    simul.addListener(
        [this](TimeS, TimeS) {
            if (tracer().on())
                policy_start_ns_ = nowNs();
        },
        sim::TickPhase::Environment, "ecoperf-policy-start");
    simul.addListener(
        [this](TimeS, TimeS) {
            if (!tracer().on())
                return;
            settle_start_ns_ = nowNs();
            tracer().add(Span::CoreUpcalls, policy_start_ns_,
                         settle_start_ns_ - policy_start_ns_);
        },
        sim::TickPhase::Workload, "ecoperf-settle-start");
    simul.addListener(
        [this](TimeS, TimeS) {
            if (tracer().on())
                tracer().add(Span::CoreSettle, settle_start_ns_,
                             nowNs() - settle_start_ns_ - nested_ns);
            nested_ns = 0;
        },
        sim::TickPhase::Telemetry, "ecoperf-settle-end");
}

core::AppShareConfig
tenantShare(int tenants)
{
    const double n = static_cast<double>(tenants);
    core::AppShareConfig share;
    share.solar_fraction = 0.9 / n;
    energy::BatteryConfig b;
    b.capacity_wh = 1440.0 / n;
    b.max_charge_w = 360.0 / n;
    b.max_discharge_w = 1440.0 / n;
    b.initial_soc = 0.5;
    share.battery = b;
    return share;
}

std::string
tenantName(int index)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "t%04d", index);
    return buf;
}

namespace {

void
fnv(std::uint64_t *h, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        *h ^= (word >> (8 * i)) & 0xffu;
        *h *= 0x100000001b3ull;
    }
}

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

} // namespace

std::uint64_t
domainDigest(const core::Ecovisor &eco, std::int64_t ticks)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    fnv(&h, static_cast<std::uint64_t>(ticks));
    for (std::size_t i = 0; i < eco.appCount(); ++i) {
        const api::AppHandle app(static_cast<std::int32_t>(i));
        const core::VirtualEnergySystem *ves = eco.ves(app);
        fnv(&h, bits(ves->totalCarbonG()));
        fnv(&h, bits(ves->hasBattery() ? ves->battery().energyWh() : 0.0));
        fnv(&h, static_cast<std::uint64_t>(
                    eco.cluster().appContainerCount(eco.copAppIndex(app))));
    }
    fnv(&h, bits(eco.curtailedWh()));
    return h;
}

void
checkWorld(const core::Ecovisor &eco, int containers_per_app,
           RunResult *r)
{
    int bad_count = 0, bad_energy = 0, bad_battery = 0;
    for (std::size_t i = 0; i < eco.appCount(); ++i) {
        const api::AppHandle app(static_cast<std::int32_t>(i));
        const core::VirtualEnergySystem *ves = eco.ves(app);
        if (eco.cluster().appContainerCount(eco.copAppIndex(app)) !=
            containers_per_app)
            ++bad_count;
        const core::TickSettlement &s = ves->lastSettlement();
        const double served = s.solar_used_w + s.batt_discharge_w +
                              s.grid_to_demand_w + s.unserved_w;
        if (!(std::fabs(served - s.demand_w) <=
              1e-9 * std::max(1.0, s.demand_w)))
            ++bad_energy;
        if (ves->hasBattery()) {
            const double wh = ves->battery().energyWh();
            if (!(wh >= 0.0 &&
                  wh <= ves->battery().config().capacity_wh * (1 + 1e-12)))
                ++bad_battery;
        }
    }
    r->expect(eco.appCount() > 0, "no apps registered");
    r->expect(bad_count == 0, std::to_string(bad_count) +
                                  " apps hold the wrong container count");
    r->expect(bad_energy == 0,
              std::to_string(bad_energy) +
                  " apps settled a tick that does not conserve energy");
    r->expect(bad_battery == 0,
              std::to_string(bad_battery) +
                  " apps hold a battery level outside [0, capacity]");
}

void
atCheckTick(const core::Ecovisor &eco, std::int64_t ticks,
            std::int64_t check_tick, RunResult *r)
{
    if (ticks != check_tick)
        return;
    r->digest = domainDigest(eco, ticks);
    r->digest_tick = ticks;
    r->rss_mb = residentMb() - hostRef().megabytes();
}

double
residentMb()
{
    long pages = 0, resident = 0;
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void
trimHeap()
{
    ::malloc_trim(0);
}

} // namespace ecoperf
