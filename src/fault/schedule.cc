#include "fault/schedule.h"

#include <algorithm>

#include "util/logging.h"
#include "util/rng.h"

namespace ecov::fault {

void
FaultSchedule::add(const FaultEvent &event)
{
    const bool windowed = event.kind != FaultKind::TransportClose;
    if (windowed && !(event.start_s < event.end_s))
        fatal("FaultSchedule::add: empty fault window");
    if ((event.kind == FaultKind::SolarDerate ||
         event.kind == FaultKind::BatteryCapacityFade) &&
        !(event.magnitude >= 0.0 && event.magnitude <= 1.0))
        fatal("FaultSchedule::add: magnitude must be in [0, 1]");
    events_.push_back(event);
}

core::EnergyFaults
FaultSchedule::energyAt(TimeS t) const
{
    core::EnergyFaults f;
    for (const FaultEvent &e : events_) {
        if (e.kind == FaultKind::TransportClose)
            continue;
        if (t < e.start_s || t >= e.end_s)
            continue;
        switch (e.kind) {
          case FaultKind::GridOutage:
            f.grid_out = true;
            break;
          case FaultKind::SolarDerate:
            f.solar_derate *= e.magnitude;
            break;
          case FaultKind::SolarDropout:
            f.solar_derate = 0.0;
            break;
          case FaultKind::BatteryOffline:
            f.battery_offline = true;
            break;
          case FaultKind::BatteryCapacityFade:
            f.battery_capacity_factor =
                std::min(f.battery_capacity_factor, e.magnitude);
            break;
          case FaultKind::SensorBlackout:
            f.sensor_blackout = true;
            break;
          case FaultKind::TransportClose:
            break;
        }
    }
    return f;
}

FaultSchedule
FaultSchedule::storm(std::uint64_t seed, TimeS horizon_s, TimeS tick_s,
                     const StormProfile &profile)
{
    if (horizon_s <= 0 || tick_s <= 0)
        fatal("FaultSchedule::storm: non-positive horizon or tick");
    const std::int64_t ticks =
        std::max<std::int64_t>(1, horizon_s / tick_s);

    FaultSchedule out;
    Rng rng(seed);

    // One seeded sub-stream per event family, so adding a family
    // never reshuffles the others (the fork() idiom the sim's signal
    // generators use).
    Rng grid_rng = rng.fork();
    Rng solar_rng = rng.fork();
    Rng batt_rng = rng.fork();
    Rng sensor_rng = rng.fork();
    Rng transport_rng = rng.fork();

    auto window = [ticks, tick_s](Rng &r, std::int64_t min_ticks,
                                  std::int64_t max_ticks, TimeS *start,
                                  TimeS *end) {
        const std::int64_t hi =
            std::max(min_ticks, std::min(max_ticks, ticks));
        const std::int64_t len = r.uniformInt(min_ticks, hi);
        const std::int64_t at =
            r.uniformInt(0, std::max<std::int64_t>(0, ticks - len));
        *start = at * tick_s;
        *end = (at + len) * tick_s;
    };

    TimeS a = 0, b = 0;
    for (int i = 0; i < profile.grid_outages; ++i) {
        window(grid_rng, 3, std::max<std::int64_t>(4, ticks / 8), &a,
               &b);
        out.add({FaultKind::GridOutage, a, b, 0.0, kAllTargets});
    }
    for (int i = 0; i < profile.solar_events; ++i) {
        window(solar_rng, 2, std::max<std::int64_t>(3, ticks / 6), &a,
               &b);
        if (solar_rng.bernoulli(0.3)) {
            out.add({FaultKind::SolarDropout, a, b, 0.0, kAllTargets});
        } else {
            out.add({FaultKind::SolarDerate, a, b,
                     solar_rng.uniform(0.3, 0.9), kAllTargets});
        }
    }
    if (profile.battery_offline) {
        window(batt_rng, 2, std::max<std::int64_t>(3, ticks / 10), &a,
               &b);
        out.add({FaultKind::BatteryOffline, a, b, 0.0, kAllTargets});
    }
    if (profile.capacity_fade < 1.0) {
        // Fade sets in past mid-run and persists to the horizon.
        const std::int64_t at = batt_rng.uniformInt(ticks / 2, ticks - 1);
        out.add({FaultKind::BatteryCapacityFade, at * tick_s,
                 ticks * tick_s, profile.capacity_fade, kAllTargets});
    }
    for (int i = 0; i < profile.sensor_blackouts; ++i) {
        window(sensor_rng, 1, std::max<std::int64_t>(2, ticks / 10),
               &a, &b);
        out.add({FaultKind::SensorBlackout, a, b, 0.0, kAllTargets});
    }

    if (profile.tenants > 0 && profile.closes_per_tenant > 0.0 &&
        ticks >= 2) {
        for (std::uint32_t tenant = 0; tenant < profile.tenants;
             ++tenant) {
            Rng per = transport_rng.fork();
            const auto closes = static_cast<std::int64_t>(
                per.uniformInt(0, 1) +
                static_cast<std::int64_t>(profile.closes_per_tenant));
            for (std::int64_t c = 0; c < closes; ++c) {
                const std::int64_t at = per.uniformInt(1, ticks - 1);
                const std::int64_t down = per.uniformInt(
                    1, std::max<std::int64_t>(1, ticks / 4));
                out.add({FaultKind::TransportClose, at * tick_s,
                         at * tick_s, static_cast<double>(down),
                         tenant});
            }
        }
    }
    return out;
}

} // namespace ecov::fault
