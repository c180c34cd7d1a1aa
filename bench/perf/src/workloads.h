/**
 * @file
 * The four ecoperf workloads (README.md explains why each exists).
 * Each sets up its world kSetups times, runs the measured loop on the
 * last one for the window, then checks its outputs.
 */

#ifndef ECOPERF_WORKLOADS_H
#define ECOPERF_WORKLOADS_H

#include "host_ref.h"
#include "report.h"
#include "world.h"

namespace ecoperf {

RunResult runSimTenants(const RunOptions &opt);
RunResult runSimPolicy(const RunOptions &opt);
RunResult runRpcDurable(const RunOptions &opt);
RunResult runDaemonTcp(const RunOptions &opt);

/** Set-ups before the window, whose median setup_s reports; the last
 *  one is the measured world. */
inline constexpr int kSetups = 9;

/**
 * Build one world with `build`, from a heap whose free pages went back
 * to the OS, and record the time it took at reference speed, scaled by
 * a reference measurement just before.
 */
template <typename Build>
auto
timedSetUp(RunResult *r, Build &&build)
{
    trimHeap();
    const double ref = hostRef().measure();
    const std::int64_t t0 = nowNs(), cpu0 = cpuNs();
    auto world = build();
    const std::int64_t cpu = cpuNs() - cpu0;
    r->setup_s.push_back(
        HostRef::scaledWallNs(nowNs() - t0, cpu, ref) * 1e-9);
    return world;
}

/** Check tick: the domain digest and RSS are taken when the world
 *  reaches it, and the window stays open until it does. */
inline std::int64_t
checkTick(const RunOptions &opt, std::int64_t full)
{
    return opt.smoke ? 64 : full;
}

} // namespace ecoperf

#endif // ECOPERF_WORKLOADS_H
