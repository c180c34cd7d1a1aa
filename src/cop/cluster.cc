#include "cop/cluster.h"

#include <bit>
#include <cmath>

#include "util/logging.h"

namespace ecov::cop {

Cluster::Cluster(int node_count, const power::ServerPowerConfig &node_config)
{
    if (node_count <= 0)
        fatal("Cluster: node count must be positive");
    nodes_.reserve(static_cast<std::size_t>(node_count));
    for (int i = 0; i < node_count; ++i)
        nodes_.emplace_back(node_config);
    buildPlacement();
}

Cluster::Cluster(const std::vector<power::ServerPowerConfig> &nodes)
{
    if (nodes.empty())
        fatal("Cluster: node list must be non-empty");
    nodes_.reserve(nodes.size());
    for (const auto &cfg : nodes)
        nodes_.emplace_back(cfg);
    buildPlacement();
}

double
Cluster::totalCores() const
{
    double total = 0.0;
    for (const auto &n : nodes_)
        total += static_cast<double>(n.model.cores());
    return total;
}

double
Cluster::freeCores() const
{
    double total = 0.0;
    for (const auto &n : nodes_)
        total += n.freeCores();
    return total;
}

// ---------------------------------------------------------------------
// App interning.
// ---------------------------------------------------------------------

AppIndex
Cluster::internApp(std::string_view app)
{
    auto it = app_index_.find(app);
    if (it != app_index_.end())
        return it->second;
    const auto idx = static_cast<AppIndex>(apps_.size());
    AppInfo info;
    info.name = std::string(app);
    apps_.push_back(std::move(info));
    app_index_.emplace(apps_.back().name, idx);
    return idx;
}

AppIndex
Cluster::findAppIndex(std::string_view app) const
{
    auto it = app_index_.find(app);
    return it == app_index_.end() ? kInvalidApp : it->second;
}

// ---------------------------------------------------------------------
// Container lifecycle.
// ---------------------------------------------------------------------

bool
Cluster::fewerInstances(int a, int b) const
{
    const int ia = nodes_[static_cast<std::size_t>(a)].instances;
    const int ib = nodes_[static_cast<std::size_t>(b)].instances;
    return ia < ib || (ia == ib && a < b);
}

bool
Cluster::fits(int node, double cores) const
{
    return !(nodes_[static_cast<std::size_t>(node)].freeCores() + 1e-9 <
             cores);
}

Cluster::PlaceEntry
Cluster::combinePlacement(const PlaceEntry &l, const PlaceEntry &r) const
{
    PlaceEntry e;
    e.best = (l.best < 0 || (r.best >= 0 && fewerInstances(r.best, l.best)))
                 ? r.best
                 : l.best;
    // NaN-propagating max: a range holding a NaN free count is never
    // pruned, so its leaves meet the scheduler's room test itself.
    e.max_free = (std::isnan(l.max_free) || l.max_free > r.max_free)
                     ? l.max_free
                     : r.max_free;
    return e;
}

void
Cluster::buildPlacement()
{
    place_leaves_ = std::bit_ceil(nodes_.size());
    place_.assign(2 * place_leaves_, PlaceEntry{});
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        place_[place_leaves_ + i] =
            PlaceEntry{static_cast<int>(i), nodes_[i].freeCores()};
    for (std::size_t t = place_leaves_; t-- > 1;)
        place_[t] = combinePlacement(place_[2 * t], place_[2 * t + 1]);
}

void
Cluster::updatePlacement(int node)
{
    std::size_t t = place_leaves_ + static_cast<std::size_t>(node);
    place_[t].max_free = nodes_[static_cast<std::size_t>(node)].freeCores();
    for (t /= 2; t >= 1; t /= 2)
        place_[t] = combinePlacement(place_[2 * t], place_[2 * t + 1]);
}

void
Cluster::descendPlacement(std::size_t t, double cores, int &best) const
{
    const PlaceEntry &e = place_[t];
    // Prune a range where no node has room, or whose least-loaded
    // node cannot beat the best found so far.
    if (e.best < 0 || e.max_free + 1e-9 < cores ||
        (best >= 0 && !fewerInstances(e.best, best)))
        return;
    // The range's least-loaded node has room, so nothing else in the
    // range can beat it. A leaf that passed the prune always ends
    // here: its max_free is its node's freeCores().
    if (fits(e.best, cores)) {
        best = e.best;
        return;
    }
    descendPlacement(2 * t, cores, best);
    descendPlacement(2 * t + 1, cores, best);
}

int
Cluster::pickNode(double cores) const
{
    // LXD default scheduler: fewest instances among nodes with room;
    // ties go to the lowest index for determinism. The descent visits
    // left ranges first and prunes on (instances, index), so it
    // returns exactly the node a scan of every node would.
    int best = -1;
    descendPlacement(1, cores, best);
    return best;
}

std::optional<ContainerId>
Cluster::createContainer(std::string_view app, double cores)
{
    if (!(cores > 0.0))
        fatal("Cluster::createContainer: cores must be positive");
    int node = pickNode(cores);
    if (node < 0)
        return std::nullopt;

    const AppIndex app_idx = internApp(app);

    // Reuse a recycled slot (generation already bumped at destroy) or
    // grow the slab; the hot columns grow in lockstep.
    std::int32_t s;
    if (!free_.empty()) {
        s = free_.back();
        free_.pop_back();
    } else {
        s = static_cast<std::int32_t>(slots_.size());
        slots_.emplace_back();
        cols_.grow();
    }
    Slot &slot = slots_[static_cast<std::size_t>(s)];
    slot.live = true;
    slot.id = next_id_++;
    slot.app = app_idx;

    // A fresh container takes Container's defaults; the coefficient
    // columns cache the hosting node's power-model constants.
    const auto si = static_cast<std::size_t>(s);
    cols_.demand[si] = 0.0;
    cols_.util_cap[si] = 1.0;
    cols_.cores[si] = cores;
    cols_.gpu_util[si] = 0.0;
    cols_.node[si] = node;
    refreshModelCoefficients(s);

    id_to_slot_.push_back(s);

    // Append to the app's list and the global live list: tail-append
    // keeps both in creation order == increasing-id order. Forward
    // links are columns (the walk direction); backward links are slot
    // state (only create/destroy touch them).
    AppInfo &info = apps_[static_cast<std::size_t>(app_idx)];
    slot.app_prev = info.tail;
    cols_.app_next[si] = -1;
    if (info.tail >= 0)
        cols_.app_next[static_cast<std::size_t>(info.tail)] = s;
    else
        info.head = s;
    info.tail = s;
    info.count += 1;
    info.power_dirty = true;

    slot.all_prev = all_tail_;
    cols_.all_next[si] = -1;
    if (all_tail_ >= 0)
        cols_.all_next[static_cast<std::size_t>(all_tail_)] = s;
    else
        all_head_ = s;
    all_tail_ = s;
    live_count_ += 1;

    auto &n = nodes_[static_cast<std::size_t>(node)];
    n.cores_allocated += cores;
    n.instances += 1;
    updatePlacement(node);
    return slot.id;
}

void
Cluster::destroyContainer(ContainerId id)
{
    const std::int32_t s = slotOf(id);
    if (s < 0)
        fatal("Cluster::destroyContainer: unknown container");
    Slot &slot = slots_[static_cast<std::size_t>(s)];
    const auto si = static_cast<std::size_t>(s);

    auto &n = nodes_[static_cast<std::size_t>(cols_.node[si])];
    n.cores_allocated -= cols_.cores[si];
    if (n.cores_allocated < 0.0)
        n.cores_allocated = 0.0;
    n.instances -= 1;
    updatePlacement(cols_.node[si]);

    const std::int32_t app_next = cols_.app_next[si];
    const std::int32_t all_next = cols_.all_next[si];

    AppInfo &info = apps_[static_cast<std::size_t>(slot.app)];
    if (slot.app_prev >= 0)
        cols_.app_next[static_cast<std::size_t>(slot.app_prev)] =
            app_next;
    else
        info.head = app_next;
    if (app_next >= 0)
        slots_[static_cast<std::size_t>(app_next)].app_prev =
            slot.app_prev;
    else
        info.tail = slot.app_prev;
    info.count -= 1;
    info.power_dirty = true;

    if (slot.all_prev >= 0)
        cols_.all_next[static_cast<std::size_t>(slot.all_prev)] =
            all_next;
    else
        all_head_ = all_next;
    if (all_next >= 0)
        slots_[static_cast<std::size_t>(all_next)].all_prev =
            slot.all_prev;
    else
        all_tail_ = slot.all_prev;
    live_count_ -= 1;

    id_to_slot_[static_cast<std::size_t>(id - 1)] = -1;
    slot.live = false;
    slot.generation += 1; // refs to this incarnation are now stale
    cols_.clearSlot(s);   // dead state must not leak to a recycle
    free_.push_back(s);
}

void
Cluster::fatalSlot(const char *who)
{
    fatal(std::string(who) + ": slot index out of range");
}

std::int32_t
Cluster::slotOf(ContainerId id) const
{
    if (id < 1 || id >= next_id_)
        return -1;
    return id_to_slot_[static_cast<std::size_t>(id - 1)];
}

bool
Cluster::exists(ContainerId id) const
{
    return slotOf(id) >= 0;
}

ContainerRef
Cluster::refOf(ContainerId id) const
{
    const std::int32_t s = slotOf(id);
    if (s < 0)
        return ContainerRef{};
    return ContainerRef{s, slots_[static_cast<std::size_t>(s)].generation};
}

ContainerId
Cluster::idOf(ContainerRef ref) const
{
    return live(ref) ? slots_[static_cast<std::size_t>(ref.slot)].id
                     : kInvalidContainer;
}

bool
Cluster::live(ContainerRef ref) const
{
    if (ref.slot < 0 ||
        static_cast<std::size_t>(ref.slot) >= slots_.size())
        return false;
    const Slot &slot = slots_[static_cast<std::size_t>(ref.slot)];
    return slot.live && slot.generation == ref.generation;
}

std::int32_t
Cluster::liveSlotIndex(ContainerId id, const char *who) const
{
    const std::int32_t s = slotOf(id);
    if (s < 0)
        fatal(std::string(who) + ": unknown container");
    return s;
}

Container
Cluster::container(ContainerId id) const
{
    const auto s =
        static_cast<std::size_t>(liveSlotIndex(id, "Cluster::container"));
    return Container{.id = id,
                     .app = slots_[s].app,
                     .node = cols_.node[s],
                     .cores = cols_.cores[s],
                     .util_cap = cols_.util_cap[s],
                     .demand = cols_.demand[s],
                     .gpu_util = cols_.gpu_util[s]};
}

// ---------------------------------------------------------------------
// Runtime state.
// ---------------------------------------------------------------------

void
Cluster::markAppPowerDirty(AppIndex app)
{
    apps_[static_cast<std::size_t>(app)].power_dirty = true;
}

void
Cluster::refreshModelCoefficients(std::int32_t s)
{
    const auto si = static_cast<std::size_t>(s);
    const auto &model =
        nodes_[static_cast<std::size_t>(cols_.node[si])].model;
    // Store the exact idlePerCoreW()*cores / dynamicPerCoreW()*cores
    // products ServerPowerModel::containerPowerW computes — including
    // its node-core clamp — so powerAtSlot() reproduces the model
    // bit-for-bit.
    const double cl = clamp(cols_.cores[si], 0.0,
                            static_cast<double>(model.cores()));
    cols_.idle_w[si] = model.idlePerCoreW() * cl;
    cols_.dyn_w[si] = model.dynamicPerCoreW() * cl;
    cols_.gpu_peak_w[si] = model.config().gpu_peak_w;
}

bool
Cluster::setCores(ContainerId id, double cores)
{
    if (!(cores > 0.0))
        fatal("Cluster::setCores: cores must be positive");
    const std::int32_t s = liveSlotIndex(id, "Cluster::setCores");
    const auto si = static_cast<std::size_t>(s);
    auto &n = nodes_[static_cast<std::size_t>(cols_.node[si])];
    double delta = cores - cols_.cores[si];
    if (delta > n.freeCores() + 1e-9)
        return false;
    n.cores_allocated += delta;
    updatePlacement(cols_.node[si]);
    cols_.cores[si] = cores;
    refreshModelCoefficients(s);
    markAppPowerDirty(slots_[si].app);
    return true;
}

void
Cluster::storeUtilCap(std::int32_t s, double cap)
{
    cols_.util_cap[static_cast<std::size_t>(s)] = clamp(cap, 0.0, 1.0);
    markAppPowerDirty(slots_[static_cast<std::size_t>(s)].app);
}

void
Cluster::setUtilizationCap(ContainerId id, double cap)
{
    if (std::isnan(cap))
        fatal("Cluster::setUtilizationCap: NaN cap");
    storeUtilCap(liveSlotIndex(id, "Cluster::setUtilizationCap"), cap);
}

void
Cluster::setDemand(ContainerId id, double demand)
{
    if (std::isnan(demand))
        fatal("Cluster::setDemand: NaN demand");
    const auto s = static_cast<std::size_t>(
        liveSlotIndex(id, "Cluster::setDemand"));
    cols_.demand[s] = clamp(demand, 0.0, 1.0);
    markAppPowerDirty(slots_[s].app);
}

void
Cluster::setGpuUtil(ContainerId id, double gpu_util)
{
    if (std::isnan(gpu_util))
        fatal("Cluster::setGpuUtil: NaN utilization");
    const auto s = static_cast<std::size_t>(
        liveSlotIndex(id, "Cluster::setGpuUtil"));
    cols_.gpu_util[s] = clamp(gpu_util, 0.0, 1.0);
    markAppPowerDirty(slots_[s].app);
}

double
Cluster::containerPowerW(ContainerId id) const
{
    return powerAtSlot(liveSlotIndex(id, "Cluster::container"));
}

double
Cluster::containerPowerW(ContainerRef ref) const
{
    if (!live(ref))
        fatal("Cluster::containerPowerW: stale container ref");
    return powerAtSlot(ref.slot);
}

double
Cluster::utilCapAtSlot(std::int32_t s, double cap_w) const
{
    // ServerPowerModel::utilizationForCap over the coefficient
    // columns: idle_w/dyn_w already hold the idle-share and dynamic
    // terms it derives, with identical guards.
    const auto i = static_cast<std::size_t>(s);
    if (cols_.cores[i] <= 0.0)
        return 0.0;
    const double dyn = cols_.dyn_w[i];
    if (dyn <= 0.0)
        return 0.0;
    return clamp((cap_w - cols_.idle_w[i]) / dyn, 0.0, 1.0);
}

double
Cluster::utilizationCapForPower(ContainerId id, double cap_w) const
{
    return utilCapAtSlot(liveSlotIndex(id, "Cluster::container"), cap_w);
}

// ---------------------------------------------------------------------
// Watt caps.
// ---------------------------------------------------------------------

void
Cluster::setPowerCap(ContainerRef ref, double cap_w)
{
    if (!live(ref))
        fatal("Cluster::setPowerCap: stale container ref");
    if (!(cap_w >= 0.0))
        fatal("Cluster::setPowerCap: negative or NaN cap");
    cols_.power_cap_w[static_cast<std::size_t>(ref.slot)] = cap_w;
    storeUtilCap(ref.slot,
                 std::isinf(cap_w) ? 1.0 : utilCapAtSlot(ref.slot, cap_w));
}

double
Cluster::powerCap(ContainerRef ref) const
{
    if (!live(ref))
        fatal("Cluster::powerCap: stale container ref");
    return cols_.power_cap_w[static_cast<std::size_t>(ref.slot)];
}

void
Cluster::applyPowerCaps()
{
    for (std::int32_t s = all_head_; s >= 0;
         s = cols_.all_next[static_cast<std::size_t>(s)]) {
        const auto i = static_cast<std::size_t>(s);
        const bool uncapped = std::isinf(cols_.power_cap_w[i]);
        // An uncapped container keeps any override, unless its cap is
        // an emergency one: that lifts to 1.
        if (uncapped && !cols_.emergency[i])
            continue;
        cols_.emergency[i] = 0;
        const double cap =
            uncapped ? 1.0 : utilCapAtSlot(s, cols_.power_cap_w[i]);
        // Rewriting an identical value would change nothing but would
        // touch the cold slot and dirty the app's aggregate. The bit
        // compare keeps a -0.0 override from standing in for +0.0.
        if (std::bit_cast<std::uint64_t>(cap) ==
            std::bit_cast<std::uint64_t>(cols_.util_cap[i]))
            continue;
        storeUtilCap(s, cap);
    }
}

void
Cluster::shedApp(AppIndex app, double scale)
{
    forEachAppContainer(app, [&](ContainerId, ContainerRef ref) {
        storeUtilCap(ref.slot,
                     utilCapAtSlot(ref.slot, powerAtSlot(ref.slot) * scale));
        cols_.emergency[static_cast<std::size_t>(ref.slot)] = 1;
    });
}

bool
Cluster::emergencyCapped(ContainerRef ref) const
{
    if (!live(ref))
        fatal("Cluster::emergencyCapped: stale container ref");
    return cols_.emergency[static_cast<std::size_t>(ref.slot)] != 0;
}

void
Cluster::restoreEmergencyCap(ContainerId id)
{
    cols_.emergency[static_cast<std::size_t>(
        liveSlotIndex(id, "Cluster::restoreEmergencyCap"))] = 1;
}

std::vector<std::pair<ContainerId, double>>
Cluster::powerCaps() const
{
    std::vector<std::pair<ContainerId, double>> out;
    for (std::int32_t s = all_head_; s >= 0;
         s = cols_.all_next[static_cast<std::size_t>(s)]) {
        const auto i = static_cast<std::size_t>(s);
        if (!std::isinf(cols_.power_cap_w[i]))
            out.emplace_back(slots_[i].id, cols_.power_cap_w[i]);
    }
    return out;
}

void
Cluster::restorePowerCap(ContainerId id, double cap_w)
{
    const std::int32_t s = liveSlotIndex(id, "Cluster::restorePowerCap");
    if (!(cap_w >= 0.0) || std::isinf(cap_w))
        fatal("Cluster::restorePowerCap: cap is not finite and "
              "non-negative");
    cols_.power_cap_w[static_cast<std::size_t>(s)] = cap_w;
}

double
Cluster::maxContainerPowerW(ContainerId id) const
{
    // containerPowerW at utilization 1: idle_w + dyn_w*1 + gpu term.
    const auto s = static_cast<std::size_t>(
        liveSlotIndex(id, "Cluster::container"));
    return (cols_.idle_w[s] + cols_.dyn_w[s] * 1.0) +
           cols_.gpu_peak_w[s] * cols_.gpu_util[s];
}

// ---------------------------------------------------------------------
// Per-app aggregation.
// ---------------------------------------------------------------------

int
Cluster::appContainerCount(AppIndex app) const
{
    if (app < 0 || static_cast<std::size_t>(app) >= apps_.size())
        return 0;
    return apps_[static_cast<std::size_t>(app)].count;
}

double
Cluster::appPowerW(AppIndex app) const
{
    if (app < 0 || static_cast<std::size_t>(app) >= apps_.size())
        return 0.0;
    const AppInfo &info = apps_[static_cast<std::size_t>(app)];
    if (!info.power_dirty)
        return info.power_w;
    // The settle walk: streams only the hot columns (never the slot
    // array), summing in list order == creation order == id order —
    // the FP-summation-order half of the determinism contract.
    double total = 0.0;
    for (std::int32_t s = info.head; s >= 0;
         s = cols_.app_next[static_cast<std::size_t>(s)])
        total += powerAtSlot(s);
    info.power_w = total;
    info.power_dirty = false;
    return total;
}

std::vector<ContainerId>
Cluster::appContainers(AppIndex app) const
{
    std::vector<ContainerId> out;
    out.reserve(static_cast<std::size_t>(appContainerCount(app)));
    forEachAppContainer(app, [&](ContainerId id, ContainerRef) {
        out.push_back(id);
    });
    return out;
}

double
Cluster::totalPowerW() const
{
    // Per node: idle + dynamic of hosted containers (+ GPU terms).
    // The global live list is in increasing-id order, matching the
    // original map iteration bit-for-bit.
    std::vector<double> core_util(nodes_.size(), 0.0);
    std::vector<double> gpu_util(nodes_.size(), 0.0);
    for (std::int32_t s = all_head_; s >= 0;
         s = cols_.all_next[static_cast<std::size_t>(s)]) {
        const auto i = static_cast<std::size_t>(s);
        auto idx = static_cast<std::size_t>(cols_.node[i]);
        core_util[idx] +=
            std::min(cols_.demand[i], cols_.util_cap[i]) *
            cols_.cores[i];
        gpu_util[idx] = std::max(gpu_util[idx], cols_.gpu_util[i]);
    }
    double total = 0.0;
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        total += nodes_[i].model.nodePowerW(core_util[i], gpu_util[i]);
    return total;
}

const Node &
Cluster::node(int idx) const
{
    if (idx < 0 || idx >= nodeCount())
        fatal("Cluster::node: index out of range");
    return nodes_[static_cast<std::size_t>(idx)];
}

// ---------------------------------------------------------------------
// Checkpoint/restore.
// ---------------------------------------------------------------------

ClusterImage
Cluster::captureState() const
{
    ClusterImage img;
    img.next_id = next_id_;
    img.free_slots = free_;
    img.apps.reserve(apps_.size());
    for (const AppInfo &info : apps_)
        img.apps.push_back(info.name);
    img.slots.reserve(slots_.size());
    for (const Slot &slot : slots_) {
        ClusterImage::SlotImage si;
        si.generation = slot.generation;
        si.live = slot.live;
        if (slot.live)
            si.c = container(slot.id);
        img.slots.push_back(si);
    }
    return img;
}

void
Cluster::restoreState(const ClusterImage &image)
{
    // ckpt::decodeSnapshot and applySnapshot refuse such an image as
    // DataLoss; anything else that gets here dies before it mutates.
    for (const ClusterImage::SlotImage &si : image.slots)
        if (si.live &&
            (si.c.id < 1 || si.c.id >= image.next_id || si.c.app < 0 ||
             static_cast<std::size_t>(si.c.app) >= image.apps.size() ||
             si.c.node < 0 || si.c.node >= nodeCount()))
            fatal("Cluster::restoreState: slot image breaks slab "
                  "invariants");
    for (Node &n : nodes_) {
        n.cores_allocated = 0.0;
        n.instances = 0;
    }
    slots_.assign(image.slots.size(), Slot{});
    cols_ = HotColumns{};
    for (std::size_t i = 0; i < image.slots.size(); ++i)
        cols_.grow();
    free_ = image.free_slots;
    apps_.clear();
    app_index_.clear();
    for (const std::string &name : image.apps) {
        AppInfo info;
        info.name = name;
        apps_.push_back(std::move(info));
        app_index_.emplace(apps_.back().name,
                           static_cast<AppIndex>(apps_.size() - 1));
    }
    all_head_ = all_tail_ = -1;
    live_count_ = 0;
    next_id_ = image.next_id;
    id_to_slot_.assign(
        next_id_ > 1 ? static_cast<std::size_t>(next_id_ - 1) : 0, -1);

    // First pass: slots, columns, coefficients, node accounting.
    std::vector<std::int32_t> live;
    for (std::size_t i = 0; i < image.slots.size(); ++i) {
        const ClusterImage::SlotImage &si = image.slots[i];
        Slot &slot = slots_[i];
        slot.generation = si.generation;
        slot.live = si.live;
        if (!si.live)
            continue;
        slot.id = si.c.id;
        slot.app = si.c.app;
        cols_.demand[i] = si.c.demand;
        cols_.util_cap[i] = si.c.util_cap;
        cols_.cores[i] = si.c.cores;
        cols_.gpu_util[i] = si.c.gpu_util;
        cols_.node[i] = si.c.node;
        refreshModelCoefficients(static_cast<std::int32_t>(i));
        id_to_slot_[static_cast<std::size_t>(si.c.id - 1)] =
            static_cast<std::int32_t>(i);
        auto &n = nodes_[static_cast<std::size_t>(si.c.node)];
        n.cores_allocated += si.c.cores;
        n.instances += 1;
        live.push_back(static_cast<std::int32_t>(i));
    }
    buildPlacement();

    // Second pass: relink both intrusive lists by tail-append in
    // increasing-id order — exactly the order create() built them in,
    // so every settle walk sums in the captured run's FP order.
    std::sort(live.begin(), live.end(),
              [this](std::int32_t a, std::int32_t b) {
                  return slots_[static_cast<std::size_t>(a)].id <
                         slots_[static_cast<std::size_t>(b)].id;
              });
    for (std::int32_t s : live) {
        const auto si = static_cast<std::size_t>(s);
        Slot &slot = slots_[si];
        AppInfo &info = apps_[static_cast<std::size_t>(slot.app)];
        slot.app_prev = info.tail;
        cols_.app_next[si] = -1;
        if (info.tail >= 0)
            cols_.app_next[static_cast<std::size_t>(info.tail)] = s;
        else
            info.head = s;
        info.tail = s;
        info.count += 1;

        slot.all_prev = all_tail_;
        cols_.all_next[si] = -1;
        if (all_tail_ >= 0)
            cols_.all_next[static_cast<std::size_t>(all_tail_)] = s;
        else
            all_head_ = s;
        all_tail_ = s;
        live_count_ += 1;
    }
}

} // namespace ecov::cop
