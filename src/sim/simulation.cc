#include "sim/simulation.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace ecov::sim {

namespace {

/** Process-wide tick counter backing Simulation::globalTickCount(). */
std::atomic<std::uint64_t> g_total_ticks{0};

} // namespace

std::uint64_t
Simulation::globalTickCount()
{
    return g_total_ticks.load(std::memory_order_relaxed);
}

Simulation::Simulation(TimeS tick_interval_s, TimeS start_s)
    : clock_(tick_interval_s, start_s)
{
}

void
Simulation::addListener(TickFn fn, TickPhase phase, std::string name)
{
    if (!fn)
        fatal("Simulation::addListener: null callback");
    entries_.push_back(Entry{static_cast<int>(phase), next_order_++,
                             std::move(fn), std::move(name)});
    dirty_ = true;
}

void
Simulation::sortEntries()
{
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry &a, const Entry &b) {
                         if (a.priority != b.priority)
                             return a.priority < b.priority;
                         return a.order < b.order;
                     });
    dirty_ = false;
}

void
Simulation::step()
{
    if (dirty_)
        sortEntries();
    const TimeS start = clock_.now();
    const TimeS dt = clock_.tickInterval();
    // Copy to tolerate listeners that register during dispatch;
    // additions take effect from the next tick.
    auto snapshot = entries_;
    for (auto &e : snapshot)
        e.fn(start, dt);
    clock_.advance();
    ++ticks_executed_;
    g_total_ticks.fetch_add(1, std::memory_order_relaxed);
}

void
Simulation::runUntil(TimeS end_s)
{
    while (clock_.now() < end_s)
        step();
}

void
Simulation::runTicks(std::int64_t ticks)
{
    for (std::int64_t i = 0; i < ticks; ++i)
        step();
}

} // namespace ecov::sim
