/**
 * @file
 * Simulation kernel tests: clock arithmetic, listener ordering,
 * runtime registration behaviour.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulation.h"
#include "util/logging.h"

namespace ecov::sim {
namespace {

TEST(SimClock, AdvancesByTick)
{
    SimClock c(60);
    EXPECT_EQ(c.now(), 0);
    EXPECT_EQ(c.tickInterval(), 60);
    EXPECT_EQ(c.advance(), 60);
    EXPECT_EQ(c.advance(), 120);
    EXPECT_EQ(c.tickCount(), 2);
}

TEST(SimClock, CustomStart)
{
    SimClock c(30, 1000);
    EXPECT_EQ(c.now(), 1000);
    c.advance();
    EXPECT_EQ(c.now(), 1030);
}

TEST(SimClock, RejectsBadInterval)
{
    EXPECT_THROW(SimClock(0), FatalError);
    EXPECT_THROW(SimClock(-5), FatalError);
}

TEST(Simulation, PhaseOrdering)
{
    Simulation simul(60);
    std::vector<std::string> order;
    simul.addListener(
        [&](TimeS, TimeS) { order.push_back("accounting"); },
        TickPhase::Accounting);
    simul.addListener([&](TimeS, TimeS) { order.push_back("env"); },
                      TickPhase::Environment);
    simul.addListener([&](TimeS, TimeS) { order.push_back("policy"); },
                      TickPhase::Policy);
    simul.addListener([&](TimeS, TimeS) { order.push_back("workload"); },
                      TickPhase::Workload);
    simul.step();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], "env");
    EXPECT_EQ(order[1], "policy");
    EXPECT_EQ(order[2], "workload");
    EXPECT_EQ(order[3], "accounting");
}

TEST(Simulation, RegistrationOrderWithinPhase)
{
    Simulation simul(60);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        simul.addListener([&order, i](TimeS, TimeS) { order.push_back(i); },
                          TickPhase::Policy);
    }
    simul.step();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, TickArgumentsAreIntervalStartAndLength)
{
    Simulation simul(120);
    std::vector<TimeS> starts;
    simul.addListener(
        [&](TimeS start, TimeS dt) {
            starts.push_back(start);
            EXPECT_EQ(dt, 120);
        },
        TickPhase::Workload);
    simul.runTicks(3);
    EXPECT_EQ(starts, (std::vector<TimeS>{0, 120, 240}));
    EXPECT_EQ(simul.now(), 360);
}

TEST(Simulation, RunUntilStopsAtBoundary)
{
    Simulation simul(60);
    simul.runUntil(180);
    EXPECT_EQ(simul.now(), 180);
    // Already there: no further ticks.
    simul.runUntil(180);
    EXPECT_EQ(simul.now(), 180);
    // Non-multiple boundary overshoots to the next tick edge.
    simul.runUntil(190);
    EXPECT_EQ(simul.now(), 240);
}

TEST(Simulation, ListenerAddedDuringDispatchRunsNextTick)
{
    Simulation simul(60);
    int added_calls = 0;
    bool registered = false;
    simul.addListener(
        [&](TimeS, TimeS) {
            if (!registered) {
                registered = true;
                simul.addListener([&](TimeS, TimeS) { ++added_calls; },
                                  TickPhase::Workload);
            }
        },
        TickPhase::Environment);
    simul.step();
    EXPECT_EQ(added_calls, 0); // not run within the registering tick
    simul.step();
    EXPECT_EQ(added_calls, 1);
}

TEST(Simulation, TickCountersTrackSteps)
{
    Simulation simul(60);
    EXPECT_EQ(simul.ticksExecuted(), 0u);
    const std::uint64_t global_before = Simulation::globalTickCount();
    simul.runTicks(7);
    EXPECT_EQ(simul.ticksExecuted(), 7u);
    // The global counter aggregates across instances.
    Simulation other(30);
    other.runTicks(3);
    EXPECT_EQ(other.ticksExecuted(), 3u);
    EXPECT_EQ(Simulation::globalTickCount() - global_before, 10u);
}

TEST(Simulation, NullListenerIsFatal)
{
    Simulation simul(60);
    EXPECT_THROW(simul.addListener(Simulation::TickFn{},
                                   TickPhase::Workload),
                 FatalError);
}

} // namespace
} // namespace ecov::sim
