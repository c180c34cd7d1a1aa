/**
 * @file
 * Container orchestration platform (COP) substrate.
 *
 * Stand-in for the prototype's LXD deployment: provides the container
 * management surface the ecovisor extends — create/destroy containers,
 * horizontal scaling (more/fewer containers), vertical scaling (cores
 * per container) and cgroup-style utilization caps, plus the default
 * LXD placement policy (schedule onto the node with the fewest
 * container instances).
 *
 * The COP knows nothing about energy or carbon; the ecovisor layers
 * that on top via privileged access (Section 3.3), translating watt
 * caps into the utilization caps enforced here.
 *
 * Storage layout (the per-tick hot path, see docs/PERF.md):
 *
 *  - Containers live in a contiguous **slab** of slots with a LIFO
 *    free-list. A destroyed slot bumps its generation counter and is
 *    recycled by the next create, so long-running churn never grows
 *    the slab beyond the peak live count.
 *  - A ContainerRef is {slot, generation}: validated in O(1) with no
 *    lookup structure at all, and never aliases a recycled slot (the
 *    generation mismatch detects staleness instead of crashing).
 *  - ContainerIds stay monotonically increasing (they key the
 *    per-container telemetry series); a dense id->slot table keeps id
 *    resolution O(1).
 *  - App names are **interned** to a dense AppIndex at first use;
 *    every container stores the index, and each app threads an
 *    intrusive doubly-linked list through its slots in creation order
 *    (which equals increasing-id order, preserving the exact
 *    iteration order — and therefore the floating-point summation
 *    order — of the original id-sorted std::map). appPowerW() and
 *    forEachAppContainer() walk only that app's list: no string
 *    compares, no allocation, O(app's containers) instead of
 *    O(all containers).
 *  - Every per-container runtime field — demand, util cap, cores, GPU
 *    share, node, watt cap, emergency flag, cached power-model
 *    coefficients, and the forward list links — lives once, in
 *    parallel slot-indexed **columns** (cop/columns.h, SoA), not in
 *    the slot struct; aggregate walks stream dense doubles and never
 *    touch the slot array. The slot keeps only identity and lifecycle
 *    state (id, app, generation, backward links, telemetry cache).
 *    Readers get a `Container` value assembled from the columns
 *    (`container`), a liveness test (`live`), or (id, ref) pairs from
 *    forEachAppContainer().
 *  - Each app carries a cached power aggregate invalidated by any
 *    demand/cap/cores/gpu change, so repeated appPowerW() calls
 *    within a tick are O(1).
 *  - Placement descends a tournament tree over the nodes (each entry
 *    holds its range's least-loaded node and largest free-core
 *    count), so a create costs O(log nodes), not a scan of every
 *    node, and picks exactly the node the scan would.
 *  - Tenant watt caps live in a slot column (power_cap_w), so setting,
 *    reading and dropping one is O(1) and re-deriving them all is one
 *    dense walk of the live list. The same walk lifts grid-outage
 *    emergency caps (the emergency column), so this module alone
 *    decides every container's utilization cap.
 */

#ifndef ECOV_COP_CLUSTER_H
#define ECOV_COP_CLUSTER_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cop/columns.h"
#include "power/server_power_model.h"
#include "util/units.h"

namespace ecov::cop {

/** Opaque container identifier (monotonic, never reused). */
using ContainerId = std::int64_t;

/** Sentinel for "no container". */
inline constexpr ContainerId kInvalidContainer = -1;

/** Dense index of an interned application name (never invalidated). */
using AppIndex = std::int32_t;

/** Sentinel for "no app". */
inline constexpr AppIndex kInvalidApp = -1;

/** Sentinel generation marking a slot-side cache as never filled. */
inline constexpr std::uint32_t kNoCacheGeneration = 0xffffffffu;

/**
 * Slot-side cache of externally assigned per-container dense ids —
 * today the ecovisor's telemetry SeriesIds (docs/PERF.md). The
 * cluster stores and recycles the cache with its slot but never
 * interprets the ids; validity is generation-checked: the cache is
 * filled with the slot's current generation, and destroying the
 * container bumps the slot generation, so a recycled slot can never
 * read its predecessor's ids. (A slot would need ~4 billion destroys
 * to wrap its generation onto the sentinel; accepted.)
 */
struct SlotSeriesCache
{
    std::uint32_t generation = kNoCacheGeneration;
    std::int32_t power = -1;  ///< container_power_w series
    std::int32_t carbon = -1; ///< container_carbon_g series
};

/**
 * O(1)-validated reference to a slab slot: {slot, generation}.
 * A ref obtained before the container's destruction goes *stale*
 * (its generation no longer matches) rather than dangling — lookups
 * through it fail cleanly instead of aliasing a recycled slot.
 */
struct ContainerRef
{
    std::int32_t slot = -1;
    std::uint32_t generation = 0;

    /** True when this ref was resolved (it may still be stale). */
    constexpr bool valid() const { return slot >= 0; }

    friend constexpr bool
    operator==(ContainerRef a, ContainerRef b)
    {
        return a.slot == b.slot && a.generation == b.generation;
    }
    friend constexpr bool
    operator!=(ContainerRef a, ContainerRef b)
    {
        return !(a == b);
    }
};

/**
 * One container instance, as a value: allocation plus runtime
 * utilization state (Cluster::container() assembles it from the
 * columns; ClusterImage carries it per live slot).
 *
 * `demand` is what the workload asks for this tick; `util_cap` is the
 * cgroup-enforced ceiling; the effective utilization is their minimum.
 */
struct Container
{
    ContainerId id = kInvalidContainer;
    AppIndex app = kInvalidApp; ///< owning app (interned name index)
    int node = -1;            ///< hosting node index
    double cores = 1.0;       ///< allocated cores (vertical scale knob)
    double util_cap = 1.0;    ///< cgroup utilization ceiling in [0, 1]
    double demand = 0.0;      ///< workload-requested utilization [0, 1]
    double gpu_util = 0.0;    ///< GPU utilization in [0, 1]

    /** Effective per-core utilization after capping. */
    double effectiveUtil() const { return std::min(demand, util_cap); }
};

/** One cluster node. */
struct Node
{
    power::ServerPowerModel model;   ///< power behaviour
    double cores_allocated = 0.0;    ///< sum of hosted containers' cores
    int instances = 0;               ///< hosted container count

    explicit Node(const power::ServerPowerConfig &config)
        : model(config)
    {}

    /** Cores still unallocated. */
    double
    freeCores() const
    {
        return static_cast<double>(model.cores()) - cores_allocated;
    }
};

/**
 * Value image of the full slab for checkpoint/restore
 * (docs/CHECKPOINT.md). Node *configuration* is construction input and
 * deliberately absent — restore targets a cluster built with the same
 * configs, and recomputes the cached power coefficients from them
 * (refreshModelCoefficients is a pure function of config, so the
 * recomputed columns are bit-identical to the captured run's).
 */
struct ClusterImage
{
    struct SlotImage
    {
        Container c; ///< meaningful only when live
        std::uint32_t generation = 0;
        bool live = false;
    };
    std::vector<SlotImage> slots;       ///< full slab, dead slots too
    std::vector<std::int32_t> free_slots; ///< verbatim LIFO order
    std::vector<std::string> apps;      ///< interned names, in order
    ContainerId next_id = 1;
};

/**
 * The cluster manager (the COP itself).
 */
class Cluster
{
  public:
    /**
     * Build a homogeneous cluster.
     *
     * @param node_count number of servers
     * @param node_config per-server power/core configuration
     */
    Cluster(int node_count, const power::ServerPowerConfig &node_config);

    /**
     * Build a heterogeneous cluster from explicit node configs
     * (e.g. some nodes carry Jetson GPUs).
     */
    explicit Cluster(const std::vector<power::ServerPowerConfig> &nodes);

    /** Number of nodes. */
    int nodeCount() const { return static_cast<int>(nodes_.size()); }

    /** Total cores across all nodes. */
    double totalCores() const;

    /** Cores not allocated to any container. */
    double freeCores() const;

    // ------------------------------------------------------------------
    // App interning.
    // ------------------------------------------------------------------

    /**
     * Intern an application name: returns its dense index, assigning
     * the next one on first use. Indices are stable for the cluster's
     * lifetime regardless of container churn, so a caller (the
     * ecovisor, a policy) resolves the name once and walks by index
     * thereafter — the same resolve-once discipline api::AppHandle
     * applies to ecovisor state.
     */
    AppIndex internApp(std::string_view app);

    /** Index of an already-interned name; kInvalidApp when unknown. */
    AppIndex findAppIndex(std::string_view app) const;

    // ------------------------------------------------------------------
    // Container lifecycle.
    // ------------------------------------------------------------------

    /**
     * Create a container for an application.
     *
     * Placement follows LXD's default scheduler: the node hosting the
     * fewest container instances among those with enough free cores
     * (lowest index on ties), found in O(log nodes) by the placement
     * tree.
     *
     * @param app owning application name (interned on first use)
     * @param cores core allocation (must be > 0)
     * @return new container id, or nullopt when no node can host it
     */
    std::optional<ContainerId> createContainer(std::string_view app,
                                               double cores);

    /** Destroy a container and release its allocation. */
    void destroyContainer(ContainerId id);

    /** True when the id names a live container. O(1). */
    bool exists(ContainerId id) const;

    /**
     * The {slot, generation} ref for a live id (invalid ref when the
     * id is unknown or destroyed). O(1).
     */
    ContainerRef refOf(ContainerId id) const;

    /** The id behind a ref; kInvalidContainer when stale. O(1). */
    ContainerId idOf(ContainerRef ref) const;

    /**
     * True when the ref names a live container; false when it is
     * invalid or stale (its slot was destroyed, possibly recycled).
     * O(1): bounds check + generation compare, never fatal.
     */
    bool live(ContainerRef ref) const;

    /** A live container's state, assembled from the columns (fatal on
     *  an unknown id). */
    Container container(ContainerId id) const;

    // ------------------------------------------------------------------
    // Runtime state.
    // ------------------------------------------------------------------

    /**
     * Vertically scale a container's core allocation.
     *
     * @return true on success; false when the hosting node lacks room
     */
    bool setCores(ContainerId id, double cores);

    /**
     * Set the cgroup utilization cap, clamped to [0, 1] (fatal on NaN):
     * the COP's own knob. The ecovisor never calls it; applyPowerCaps()
     * undoes it on a watt-capped or emergency-capped container.
     */
    void setUtilizationCap(ContainerId id, double cap);

    /** Set this tick's workload demand, clamped to [0, 1] (fatal on
     *  NaN). */
    void setDemand(ContainerId id, double demand);

    /** Set GPU utilization, clamped to [0, 1] (fatal on NaN). */
    void setGpuUtil(ContainerId id, double gpu_util);

    /**
     * Power attributed to one container at its current effective
     * utilization, in watts.
     */
    double containerPowerW(ContainerId id) const;

    /** Ref-addressed variant (fatal on a stale ref). */
    double containerPowerW(ContainerRef ref) const;

    /**
     * Utilization cap keeping a container's power at or below cap_w,
     * via the hosting node's power model (Thunderbolt-style mapping).
     */
    double utilizationCapForPower(ContainerId id, double cap_w) const;

    // ------------------------------------------------------------------
    // Watt caps (Ecovisor::setContainerPowercap, §3.3). One module owns
    // both the stored watts (the power_cap_w column) and the
    // utilization cap derived from them.
    // ------------------------------------------------------------------

    /**
     * Set a container's watt cap and derive its utilization cap now,
     * as utilizationCapForPower() does. kNoPowerCap removes the cap
     * and lifts the utilization cap to 1. Fatal on a stale ref or a
     * negative or NaN cap.
     */
    void setPowerCap(ContainerRef ref, double cap_w);

    /** A container's watt cap; kNoPowerCap when uncapped. Fatal on a
     *  stale ref. */
    double powerCap(ContainerRef ref) const;

    /**
     * Re-derive every capped container's utilization cap from its
     * watt cap, and lift every emergency cap, in one walk of the live
     * list: an emergency-capped container gets its derived cap back,
     * or 1 when it has no watt cap. A setCores() since the cap was
     * set, or a direct setUtilizationCap() override of a capped
     * container, is undone here.
     */
    void applyPowerCaps();

    /**
     * Grid-outage shedding (docs/FAULTS.md): cap each of the app's
     * containers at `scale` times its current attributed power, as
     * utilizationCapForPower() maps it, and flag the cap an emergency
     * one until the next applyPowerCaps() lifts it.
     */
    void shedApp(AppIndex app, double scale);

    /** True while a live container holds an emergency cap. Fatal on a
     *  stale ref. */
    bool emergencyCapped(ContainerRef ref) const;

    /**
     * Flag a captured emergency cap again without deriving anything
     * (the restored slab already holds the capped utilization). Fatal
     * on an id that is not live.
     */
    void restoreEmergencyCap(ContainerId id);

    /**
     * Every finite watt cap as (id, cap), ascending by id: the live
     * list runs in creation order, which is id order.
     */
    std::vector<std::pair<ContainerId, double>> powerCaps() const;

    /**
     * Write back a captured watt cap without deriving anything: the
     * restored slab already holds the utilization cap the captured
     * run had. Fatal on an id that is not live or a cap that is not
     * finite and non-negative.
     */
    void restorePowerCap(ContainerId id, double cap_w);

    /** Attributed power of the container at utilization 1. */
    double maxContainerPowerW(ContainerId id) const;

    // ------------------------------------------------------------------
    // Per-app aggregation (the per-tick hot path).
    // ------------------------------------------------------------------

    /**
     * Visit an app's live containers in creation (= increasing id)
     * order, with no allocation: fn(ContainerId, ContainerRef) per
     * container. The ref addresses the ref-taking calls (an
     * api::ContainerHandle wraps it) and its slot keys the per-slot
     * SlotSeriesCache, so nothing in the walk resolves an id again.
     * fn must not create or destroy containers (it may freely mutate
     * demand/caps through the setters).
     */
    template <typename Fn>
    void
    forEachAppContainer(AppIndex app, Fn &&fn) const
    {
        if (app < 0 || static_cast<std::size_t>(app) >= apps_.size())
            return;
        for (std::int32_t s = apps_[static_cast<std::size_t>(app)].head;
             s >= 0; s = cols_.app_next[static_cast<std::size_t>(s)]) {
            const Slot &slot = slots_[static_cast<std::size_t>(s)];
            fn(slot.id, ContainerRef{s, slot.generation});
        }
    }

    /**
     * The series cache of a slab slot (mutable: callers fill it with
     * the ids they assigned, stamping the slot's current generation).
     * Disjointness contract: with sharded recording, each slot is
     * visited by exactly one shard (its app's), so concurrent access
     * never aliases — and *filling* the cache (which also mutates the
     * shared telemetry store) must happen in a sequential phase.
     */
    SlotSeriesCache &
    seriesCache(std::int32_t slot)
    {
        if (slot < 0 || static_cast<std::size_t>(slot) >= slots_.size())
            fatalSlot("Cluster::seriesCache");
        return slots_[static_cast<std::size_t>(slot)].series_cache;
    }

    /** Current generation of a slab slot (cache validity checks). */
    std::uint32_t
    slotGeneration(std::int32_t slot) const
    {
        if (slot < 0 || static_cast<std::size_t>(slot) >= slots_.size())
            fatalSlot("Cluster::slotGeneration");
        return slots_[static_cast<std::size_t>(slot)].generation;
    }

    /** Live containers owned by an interned app. */
    int appContainerCount(AppIndex app) const;

    /**
     * Sum of attributed power over an app's containers. O(1) when the
     * cached aggregate is clean (no demand/cap/cores/gpu change since
     * the last call); otherwise one walk of the app's own list.
     */
    double appPowerW(AppIndex app) const;

    /**
     * Ids of an app's live containers, in creation order. Allocates;
     * hot paths use forEachAppContainer() instead.
     */
    std::vector<ContainerId> appContainers(AppIndex app) const;

    /**
     * Total cluster power: every node's idle power plus all dynamic
     * power — includes the baseline idle of unallocated capacity that
     * Figure 5(d) shows as "ecovisor baseline".
     */
    double totalPowerW() const;

    /** Total live containers. */
    int containerCount() const { return live_count_; }

    /** Node accessor (for tests and power accounting). */
    const Node &node(int idx) const;

    // ------------------------------------------------------------------
    // Layout introspection (column tests).
    // ------------------------------------------------------------------

    /**
     * Read-only view of the columns: slot-indexed in lockstep with the
     * slab, and the only home of every per-container runtime field.
     */
    const HotColumns &hotColumns() const { return cols_; }

    // ------------------------------------------------------------------
    // Checkpoint/restore (src/ckpt/, docs/CHECKPOINT.md).
    // ------------------------------------------------------------------

    /** Capture the slab, free-list, interned names and id allocator. */
    ClusterImage captureState() const;

    /**
     * Rebuild the full layout from an image: slab + columns + both
     * intrusive lists (relinked in increasing-id order, which equals
     * the captured link order), id table, node accounting, placement
     * tree, free-list verbatim. Watt caps and emergency flags are not
     * in the image and come back clear (Ecovisor::restoreState writes
     * them).
     * Slot-side series caches reset to the never-filled
     * sentinel — telemetry lazily re-interns. Fatal, before anything
     * changes, on a live slot whose id, app or node is out of range
     * (ckpt::decodeSnapshot and applySnapshot refuse those, and a
     * broken free list, as DataLoss first).
     */
    void restoreState(const ClusterImage &image);

  private:
    /**
     * One slab slot: identity and lifecycle state only. Every runtime
     * field lives in `cols_` (cop/columns.h).
     */
    struct Slot
    {
        ContainerId id = kInvalidContainer; ///< meaningful when live
        AppIndex app = kInvalidApp;         ///< meaningful when live
        std::uint32_t generation = 0;
        std::int32_t app_prev = -1; ///< per-app list, backward (cold)
        std::int32_t all_prev = -1; ///< global live list, backward
        SlotSeriesCache series_cache; ///< generation-checked ext. ids
        bool live = false;
    };

    /** Out-of-line fatal for the inline slot accessors. */
    [[noreturn]] static void fatalSlot(const char *who);

    /** Interned app: name, container list, cached power aggregate. */
    struct AppInfo
    {
        std::string name;
        std::int32_t head = -1;
        std::int32_t tail = -1;
        std::int32_t count = 0;
        /**
         * Cached appPowerW sum. Written under the dirty protocol:
         * each app's cache is only touched by appPowerW(its index),
         * so sharded settlement (one app belongs to exactly one
         * shard) stays race-free.
         */
        mutable double power_w = 0.0;
        mutable bool power_dirty = true;
    };

    /**
     * One placement-tree entry: its node range's least-loaded node
     * (fewest instances, lowest index on ties, whether or not it has
     * room) and the range's largest freeCores(). Padding leaves past
     * the last node hold best = -1.
     */
    struct PlaceEntry
    {
        int best = -1;
        double max_free = -std::numeric_limits<double>::infinity();
    };

    /** The scheduler's node for `cores`; -1 when none has room. */
    int pickNode(double cores) const;

    /** True when node a sorts before node b in placement order. */
    bool fewerInstances(int a, int b) const;

    /** The scheduler's room test. */
    bool fits(int node, double cores) const;

    PlaceEntry combinePlacement(const PlaceEntry &l,
                                const PlaceEntry &r) const;

    /** (Re)build the whole placement tree from the node accounting. */
    void buildPlacement();

    /** Refresh one node's leaf and its ancestors: O(log nodes). */
    void updatePlacement(int node);

    /** pickNode's pruned descent from tree entry t. */
    void descendPlacement(std::size_t t, double cores, int &best) const;

    /** Slot index for a live id; -1 otherwise. O(1). */
    std::int32_t slotOf(ContainerId id) const;

    /** Slot index for a live id; fatal with `who` when unknown. */
    std::int32_t liveSlotIndex(ContainerId id, const char *who) const;

    /**
     * Attributed power of one live slot from the columns — the
     * settle-walk kernel. Same floating-point expression tree as
     * ServerPowerModel::containerPowerW (the coefficient columns hold
     * the identical idlePerCoreW()*cores / dynamicPerCoreW()*cores
     * products), so it rounds bit-identically to a model call.
     */
    double
    powerAtSlot(std::int32_t s) const
    {
        const auto i = static_cast<std::size_t>(s);
        const double util = std::min(cols_.demand[i], cols_.util_cap[i]);
        return (cols_.idle_w[i] + cols_.dyn_w[i] * util) +
               cols_.gpu_peak_w[i] * cols_.gpu_util[i];
    }

    /** Refresh a slot's coefficient columns from its node's model. */
    void refreshModelCoefficients(std::int32_t s);

    /**
     * utilizationCapForPower over one slot's columns:
     * ServerPowerModel::utilizationForCap with identical guards.
     */
    double utilCapAtSlot(std::int32_t s, double cap_w) const;

    /** Write a slot's utilization cap, clamped, and dirty its app. */
    void storeUtilCap(std::int32_t s, double cap);

    void markAppPowerDirty(AppIndex app);

    std::vector<Node> nodes_;
    /**
     * Placement tree in heap order: entry 1 is the root, entry t has
     * children 2t and 2t+1, and node i's leaf is place_leaves_ + i.
     */
    std::vector<PlaceEntry> place_;
    std::size_t place_leaves_ = 0; ///< leaf count: nodes rounded up to 2^k
    std::vector<Slot> slots_;
    HotColumns cols_; ///< slot-indexed hot columns (size == slots_)
    std::vector<std::int32_t> free_;       ///< LIFO recycled slots
    std::vector<std::int32_t> id_to_slot_; ///< [id-1] -> slot | -1
    std::vector<AppInfo> apps_;
    std::map<std::string, AppIndex, std::less<>> app_index_;
    std::int32_t all_head_ = -1; ///< global live list, creation order
    std::int32_t all_tail_ = -1;
    int live_count_ = 0;
    ContainerId next_id_ = 1;
};

} // namespace ecov::cop

#endif // ECOV_COP_CLUSTER_H
