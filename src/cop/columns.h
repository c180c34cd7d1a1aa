/**
 * @file
 * SoA columns for the container slab (docs/PERF.md §2.1,
 * docs/ARCHITECTURE.md).
 *
 * Every per-container runtime field — demand, utilization cap, cores,
 * GPU share, hosting node, watt cap, emergency flag and the
 * precomputed power-model coefficients — lives here as a parallel
 * slot-indexed array (structure-of-arrays), and nowhere else: the
 * columns are the only home of that state. A settle walk
 * (`Cluster::appPowerW` recompute, `totalPowerW`) therefore streams
 * dense `double` columns instead of dragging a multi-line slot into
 * cache for a few scalar reads; the forward list links ride along as
 * their own `int32` columns so the walk never touches the slot array
 * at all. Identity and lifecycle state (id, app, generation counter,
 * backward links, the telemetry series cache) stays in the slot, and
 * readers that want a whole container get a `Container` value
 * assembled from the columns (`Cluster::container`).
 *
 * The coefficient columns cache the hosting node's power-model
 * constants scaled by the slot's allocation, refreshed whenever
 * `cores` (or the slot's node, at create) changes; they reproduce
 * `ServerPowerModel::containerPowerW` with the exact same
 * floating-point expression tree, so a column walk is bit-identical
 * to a model call (the determinism contract, docs/ARCHITECTURE.md;
 * checked against a shadow model by tests/cop/columns_test.cc).
 */

#ifndef ECOV_COP_COLUMNS_H
#define ECOV_COP_COLUMNS_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ecov::cop {

/** A slot's watt cap when it has none (core::kUnlimitedW). */
inline constexpr double kNoPowerCap =
    std::numeric_limits<double>::infinity();

/**
 * Parallel slot-indexed hot columns owned by the cluster slab.
 * Every column always has exactly one element per slab slot; dead
 * (free-listed) slots hold zeros, -1 links and no watt cap, and are
 * unreachable from any list walk.
 */
struct HotColumns
{
    // ------------------------------------------------------------------
    // Runtime utilization state (written by the Cluster setters).
    // ------------------------------------------------------------------
    std::vector<double> demand;   ///< workload demand in [0, 1]
    std::vector<double> util_cap; ///< cgroup ceiling in [0, 1]
    std::vector<double> cores;    ///< allocated cores (raw, unclamped)
    std::vector<double> gpu_util; ///< GPU utilization in [0, 1]

    // ------------------------------------------------------------------
    // Cached power-model coefficients of the hosting node, scaled by
    // the slot's (node-clamped) core allocation. Refreshed at create
    // and setCores; gpu_peak_w is a per-node constant fixed at
    // create. Attributed power is then three column reads and two
    // fused-shape multiply-adds:
    //   p = (idle_w + dyn_w * min(demand, util_cap))
    //       + gpu_peak_w * gpu_util
    // — the same expression tree ServerPowerModel::containerPowerW
    // evaluates, term for term, so both paths round identically.
    // ------------------------------------------------------------------
    std::vector<double> idle_w;     ///< idlePerCoreW(node) * cores
    std::vector<double> dyn_w;      ///< dynamicPerCoreW(node) * cores
    std::vector<double> gpu_peak_w; ///< node's GPU peak draw constant

    /** Hosting node index (totalPowerW's per-node accumulation). */
    std::vector<std::int32_t> node;

    /**
     * Tenant watt cap (Ecovisor::setContainerPowercap); kNoPowerCap
     * (+inf) means uncapped. Dead slots hold kNoPowerCap, so a
     * destroyed container's cap dies with it and a recycled slot
     * never inherits one. Cluster::applyPowerCaps re-derives util_cap
     * from every finite entry at each settle.
     */
    std::vector<double> power_cap_w;

    /**
     * 1 while util_cap holds a grid-outage emergency cap
     * (Cluster::shedApp). Cluster::applyPowerCaps lifts it at the next
     * settle; dead slots hold 0, so the flag dies with its slot too.
     * Not a byte column: a store through a character type may alias
     * every column's data pointer, and the settle walk that clears
     * flags would then reload them all on each step.
     */
    std::vector<std::int32_t> emergency;

    // ------------------------------------------------------------------
    // Forward intrusive-list links (creation == increasing-id order;
    // the iteration-order part of the determinism contract). Backward
    // links are cold — only destroy reads them — and stay in the slot.
    // ------------------------------------------------------------------
    std::vector<std::int32_t> app_next; ///< next slot in the app list
    std::vector<std::int32_t> all_next; ///< next slot in the live list

    /** Slots provisioned (== the slab's slot count). */
    std::size_t size() const { return demand.size(); }

    /** Provision one more slot, zeroed, uncapped and unlinked. */
    void
    grow()
    {
        demand.push_back(0.0);
        util_cap.push_back(0.0);
        cores.push_back(0.0);
        gpu_util.push_back(0.0);
        idle_w.push_back(0.0);
        dyn_w.push_back(0.0);
        gpu_peak_w.push_back(0.0);
        node.push_back(-1);
        power_cap_w.push_back(kNoPowerCap);
        emergency.push_back(0);
        app_next.push_back(-1);
        all_next.push_back(-1);
    }

    /** Zero a recycled slot so dead state can never leak forward. */
    void
    clearSlot(std::int32_t s)
    {
        const auto i = static_cast<std::size_t>(s);
        demand[i] = 0.0;
        util_cap[i] = 0.0;
        cores[i] = 0.0;
        gpu_util[i] = 0.0;
        idle_w[i] = 0.0;
        dyn_w[i] = 0.0;
        gpu_peak_w[i] = 0.0;
        node[i] = -1;
        power_cap_w[i] = kNoPowerCap;
        emergency[i] = 0;
        app_next[i] = -1;
        all_next[i] = -1;
    }
};

} // namespace ecov::cop

#endif // ECOV_COP_COLUMNS_H
