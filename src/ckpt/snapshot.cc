#include "ckpt/snapshot.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "energy/grid_connection.h"
#include "energy/physical_energy_system.h"
#include "fault/injector.h"
#include "net/wire.h"
#include "sim/simulation.h"
#include "util/logging.h"

namespace ecov::ckpt {

namespace {

using net::WireReader;
using net::WireWriter;

api::Status
corrupt(const std::string &what)
{
    return api::Status::error(api::ErrorCode::DataLoss,
                              "ckpt: " + what);
}

void
putI64(WireWriter &w, std::int64_t v)
{
    w.u64(static_cast<std::uint64_t>(v));
}

bool
getI64(WireReader &r, std::int64_t *v)
{
    std::uint64_t u = 0;
    if (!r.u64(&u))
        return false;
    *v = static_cast<std::int64_t>(u);
    return true;
}

void
putI32(WireWriter &w, std::int32_t v)
{
    w.u32(static_cast<std::uint32_t>(v));
}

bool
getI32(WireReader &r, std::int32_t *v)
{
    std::uint32_t u = 0;
    if (!r.u32(&u))
        return false;
    *v = static_cast<std::int32_t>(u);
    return true;
}

void
putString(WireWriter &w, const std::string &s)
{
    w.u32(static_cast<std::uint32_t>(s.size()));
    w.bytes(s);
}

bool
getString(WireReader &r, std::string *s)
{
    std::uint32_t len = 0;
    std::string_view v;
    if (!r.u32(&len) || !r.bytes(&v, len))
        return false;
    s->assign(v);
    return true;
}

// Minimum encoded size of each counted element (fixed fields only;
// strings and nested lists contribute their u32 length prefix). A
// count the remaining bytes cannot hold is a forged or corrupt
// record, rejected before anything is reserved.
constexpr std::size_t kShareMinBytes = 8 + 8 + 1;
constexpr std::size_t kVesBytes = 8 + 8 + 1 + 8 + (2 * 8 + 12 * 8) + 5 * 8;
constexpr std::size_t kSlotMinBytes = 1 + 4;
constexpr std::size_t kAppImageMinBytes = 4 + kShareMinBytes + kVesBytes;
constexpr std::size_t kSessionMinBytes = 4 + 8 + 1 + 4 + 4 + 3 * 4;
constexpr std::size_t kEventBytes = 1 + 4 + 8;
constexpr std::size_t kOpMinBytes = 4 + 4 + 1 + 4 + 8 + 4 + kShareMinBytes + 4;
constexpr std::size_t kCapEntryBytes = 4 + 8;

/**
 * Read an element count, rejecting any the remaining bytes cannot
 * hold at `min_bytes` per element — the same cross-check
 * net::decodeCapBatch makes, so a forged count can never drive a huge
 * reserve() (std::bad_alloc would escape recovery instead of the
 * DataLoss the decoders promise).
 */
bool
getCount(WireReader &r, std::size_t min_bytes, std::uint32_t *n)
{
    return r.u32(n) && *n <= r.remaining() / min_bytes;
}

// --- shared sub-codecs ------------------------------------------------

void
putShare(WireWriter &w, const core::AppShareConfig &s)
{
    w.f64(s.solar_fraction);
    w.f64(s.grid_max_w);
    w.u8(s.battery ? 1 : 0);
    if (s.battery) {
        w.f64(s.battery->capacity_wh);
        w.f64(s.battery->soc_floor);
        w.f64(s.battery->soc_ceiling);
        w.f64(s.battery->max_charge_w);
        w.f64(s.battery->max_discharge_w);
        w.f64(s.battery->efficiency);
        w.f64(s.battery->initial_soc);
    }
}

bool
getShare(WireReader &r, core::AppShareConfig *s)
{
    std::uint8_t has_batt = 0;
    if (!r.f64(&s->solar_fraction) || !r.f64(&s->grid_max_w) ||
        !r.u8(&has_batt))
        return false;
    if (has_batt) {
        energy::BatteryConfig b;
        if (!r.f64(&b.capacity_wh) || !r.f64(&b.soc_floor) ||
            !r.f64(&b.soc_ceiling) || !r.f64(&b.max_charge_w) ||
            !r.f64(&b.max_discharge_w) || !r.f64(&b.efficiency) ||
            !r.f64(&b.initial_soc))
            return false;
        s->battery = b;
    } else {
        s->battery.reset();
    }
    return true;
}

void
putSettlement(WireWriter &w, const core::TickSettlement &s)
{
    putI64(w, s.start_s);
    putI64(w, s.dt_s);
    w.f64(s.demand_w);
    w.f64(s.solar_w);
    w.f64(s.solar_used_w);
    w.f64(s.batt_discharge_w);
    w.f64(s.grid_w);
    w.f64(s.grid_to_demand_w);
    w.f64(s.batt_charge_solar_w);
    w.f64(s.batt_charge_grid_w);
    w.f64(s.curtailed_w);
    w.f64(s.carbon_g);
    w.f64(s.intensity_g_per_kwh);
    w.f64(s.unserved_w);
}

bool
getSettlement(WireReader &r, core::TickSettlement *s)
{
    return getI64(r, &s->start_s) && getI64(r, &s->dt_s) &&
           r.f64(&s->demand_w) && r.f64(&s->solar_w) &&
           r.f64(&s->solar_used_w) && r.f64(&s->batt_discharge_w) &&
           r.f64(&s->grid_w) && r.f64(&s->grid_to_demand_w) &&
           r.f64(&s->batt_charge_solar_w) &&
           r.f64(&s->batt_charge_grid_w) && r.f64(&s->curtailed_w) &&
           r.f64(&s->carbon_g) && r.f64(&s->intensity_g_per_kwh) &&
           r.f64(&s->unserved_w);
}

void
putVes(WireWriter &w, const core::VesImage &v)
{
    w.f64(v.charge_rate_w);
    w.f64(v.max_discharge_w);
    w.u8(v.has_battery ? 1 : 0);
    w.f64(v.battery_energy_wh);
    putSettlement(w, v.last);
    w.f64(v.total_energy_wh);
    w.f64(v.total_grid_wh);
    w.f64(v.total_solar_wh);
    w.f64(v.total_curtailed_wh);
    w.f64(v.total_carbon_g);
}

bool
getVes(WireReader &r, core::VesImage *v)
{
    std::uint8_t has_batt = 0;
    if (!r.f64(&v->charge_rate_w) || !r.f64(&v->max_discharge_w) ||
        !r.u8(&has_batt) || !r.f64(&v->battery_energy_wh) ||
        !getSettlement(r, &v->last) || !r.f64(&v->total_energy_wh) ||
        !r.f64(&v->total_grid_wh) || !r.f64(&v->total_solar_wh) ||
        !r.f64(&v->total_curtailed_wh) || !r.f64(&v->total_carbon_g))
        return false;
    v->has_battery = has_batt != 0;
    return true;
}

void
putCluster(WireWriter &w, const cop::ClusterImage &c)
{
    w.u32(static_cast<std::uint32_t>(c.slots.size()));
    for (const auto &s : c.slots) {
        w.u8(s.live ? 1 : 0);
        w.u32(s.generation);
        if (!s.live)
            continue;
        putI64(w, s.c.id);
        putI32(w, s.c.app);
        putI32(w, s.c.node);
        w.f64(s.c.cores);
        w.f64(s.c.util_cap);
        w.f64(s.c.demand);
        w.f64(s.c.gpu_util);
    }
    w.u32(static_cast<std::uint32_t>(c.free_slots.size()));
    for (std::int32_t s : c.free_slots)
        putI32(w, s);
    w.u32(static_cast<std::uint32_t>(c.apps.size()));
    for (const std::string &name : c.apps)
        putString(w, name);
    putI64(w, c.next_id);
}

bool
getCluster(WireReader &r, cop::ClusterImage *c)
{
    std::uint32_t n = 0;
    if (!getCount(r, kSlotMinBytes, &n))
        return false;
    c->slots.clear();
    c->slots.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        cop::ClusterImage::SlotImage s;
        std::uint8_t live = 0;
        if (!r.u8(&live) || !r.u32(&s.generation))
            return false;
        s.live = live != 0;
        if (s.live &&
            !(getI64(r, &s.c.id) && getI32(r, &s.c.app) &&
              getI32(r, &s.c.node) && r.f64(&s.c.cores) &&
              r.f64(&s.c.util_cap) && r.f64(&s.c.demand) &&
              r.f64(&s.c.gpu_util)))
            return false;
        c->slots.push_back(s);
    }
    if (!getCount(r, 4, &n))
        return false;
    c->free_slots.clear();
    c->free_slots.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::int32_t s = 0;
        if (!getI32(r, &s))
            return false;
        c->free_slots.push_back(s);
    }
    if (!getCount(r, 4, &n))
        return false;
    c->apps.clear();
    c->apps.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        if (!getString(r, &name))
            return false;
        c->apps.push_back(std::move(name));
    }
    return getI64(r, &c->next_id);
}

void
putEcovisor(WireWriter &w, const core::EcovisorImage &e)
{
    w.u32(static_cast<std::uint32_t>(e.apps.size()));
    for (const auto &a : e.apps) {
        putString(w, a.name);
        putShare(w, a.share);
        putVes(w, a.ves);
    }
    w.u32(static_cast<std::uint32_t>(e.powercaps.size()));
    for (const auto &[id, cap_w] : e.powercaps) {
        putI64(w, id);
        w.f64(cap_w);
    }
    w.u32(static_cast<std::uint32_t>(e.emergency_capped.size()));
    for (cop::ContainerId id : e.emergency_capped)
        putI64(w, id);
    putI64(w, e.degraded_ticks);
    putI64(w, e.slo_violation_ticks);
    w.f64(e.unserved_wh);
    w.f64(e.net_metered_wh);
    w.f64(e.curtailed_wh);
    putI64(w, e.last_settled_s);
    putI64(w, e.last_dt_s);
    w.f64(e.last_site_solar_w);
    w.f64(e.last_intensity);
    putI64(w, e.settled_ticks);
}

bool
getEcovisor(WireReader &r, core::EcovisorImage *e)
{
    std::uint32_t n = 0;
    if (!getCount(r, kAppImageMinBytes, &n))
        return false;
    e->apps.clear();
    e->apps.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        core::EcovisorImage::AppImage a;
        if (!getString(r, &a.name) || !getShare(r, &a.share) ||
            !getVes(r, &a.ves))
            return false;
        e->apps.push_back(std::move(a));
    }
    if (!getCount(r, 8 + 8, &n))
        return false;
    e->powercaps.clear();
    e->powercaps.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::int64_t id = 0;
        double cap_w = 0.0;
        if (!getI64(r, &id) || !r.f64(&cap_w))
            return false;
        e->powercaps.emplace_back(id, cap_w);
    }
    if (!getCount(r, 8, &n))
        return false;
    e->emergency_capped.clear();
    e->emergency_capped.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::int64_t id = 0;
        if (!getI64(r, &id))
            return false;
        e->emergency_capped.push_back(id);
    }
    return getI64(r, &e->degraded_ticks) &&
           getI64(r, &e->slo_violation_ticks) &&
           r.f64(&e->unserved_wh) && r.f64(&e->net_metered_wh) &&
           r.f64(&e->curtailed_wh) && getI64(r, &e->last_settled_s) &&
           getI64(r, &e->last_dt_s) && r.f64(&e->last_site_solar_w) &&
           r.f64(&e->last_intensity) && getI64(r, &e->settled_ticks);
}

void
putSessions(WireWriter &w, const net::ServerCoreImage &img)
{
    w.u32(img.next_session);
    w.u32(static_cast<std::uint32_t>(img.sessions.size()));
    for (const auto &s : img.sessions) {
        w.u32(s.id);
        w.u64(s.token);
        w.u8(s.bound ? 1 : 0);
        w.u32(s.lease_left);
        w.u32(s.committed_max);
        w.u32(static_cast<std::uint32_t>(s.apps.size()));
        for (std::int32_t a : s.apps)
            putI32(w, a);
        w.u32(static_cast<std::uint32_t>(s.containers.size()));
        for (const cop::ContainerRef &ref : s.containers) {
            putI32(w, ref.slot);
            w.u32(ref.generation);
        }
        // Flat in memory, but the layout stays one (id, length,
        // bytes) triple per entry.
        const net::DedupWindow &d = s.done;
        const auto *arena = reinterpret_cast<const char *>(d.bytes.data());
        w.u32(static_cast<std::uint32_t>(d.ids.size()));
        for (std::size_t k = 0; k < d.ids.size(); ++k) {
            const std::uint32_t len = d.ends[k] - d.start(k);
            w.u32(d.ids[k]);
            w.u32(len);
            w.bytes(std::string_view(arena + d.start(k), len));
        }
    }
}

api::Status
getSessions(WireReader &r, net::ServerCoreImage *img)
{
    const api::Status truncated =
        corrupt("snapshot: truncated session plane");
    std::uint32_t n = 0;
    if (!r.u32(&img->next_session) || !getCount(r, kSessionMinBytes, &n))
        return truncated;
    img->sessions.clear();
    img->sessions.reserve(n);
    std::vector<std::uint64_t> tokens;
    for (std::uint32_t i = 0; i < n; ++i) {
        net::SessionImage s;
        std::uint8_t bound = 0;
        std::uint32_t m = 0;
        if (!r.u32(&s.id) || !r.u64(&s.token) || !r.u8(&bound) ||
            !r.u32(&s.lease_left) || !r.u32(&s.committed_max) ||
            !getCount(r, 4, &m))
            return truncated;
        // Capture walks sessions in ascending id order, every id
        // nonzero and below the allocator; the server's id-ordered
        // table and its allocator both rest on this.
        const net::SessionId prev =
            img->sessions.empty() ? 0 : img->sessions.back().id;
        if (s.id <= prev || s.id >= img->next_session)
            return corrupt("snapshot: session id " +
                           std::to_string(s.id) +
                           " out of order or outside [1, next_session)");
        if (s.token != 0)
            tokens.push_back(s.token);
        s.bound = bound != 0;
        s.apps.reserve(m);
        for (std::uint32_t k = 0; k < m; ++k) {
            std::int32_t a = 0;
            if (!getI32(r, &a))
                return truncated;
            s.apps.push_back(a);
        }
        if (!getCount(r, 4 + 4, &m))
            return truncated;
        s.containers.reserve(m);
        for (std::uint32_t k = 0; k < m; ++k) {
            cop::ContainerRef ref;
            if (!getI32(r, &ref.slot) || !r.u32(&ref.generation))
                return truncated;
            s.containers.push_back(ref);
        }
        if (!getCount(r, 4 + 4, &m))
            return truncated;
        net::DedupWindow &d = s.done;
        d.ids.reserve(m);
        d.ends.reserve(m);
        for (std::uint32_t k = 0; k < m; ++k) {
            std::uint32_t req_id = 0, len = 0;
            std::string_view v;
            if (!r.u32(&req_id) || !r.u32(&len) || !r.bytes(&v, len))
                return truncated;
            // The server binary-searches the window and admits only
            // ids above the watermark: both rest on this invariant.
            if (!d.ids.empty() && req_id <= d.ids.back())
                return corrupt("snapshot: session " +
                               std::to_string(s.id) +
                               " dedup window not strictly ascending");
            d.ids.push_back(req_id);
            d.bytes.insert(d.bytes.end(), v.begin(), v.end());
            d.ends.push_back(static_cast<std::uint32_t>(d.bytes.size()));
        }
        if (!d.ids.empty() && d.ids.back() > s.committed_max)
            return corrupt("snapshot: session " + std::to_string(s.id) +
                           " dedup window above its committed "
                           "watermark");
        img->sessions.push_back(std::move(s));
    }
    // A token names one session: Resume could not tell two apart.
    std::sort(tokens.begin(), tokens.end());
    if (std::adjacent_find(tokens.begin(), tokens.end()) != tokens.end())
        return corrupt("snapshot: two sessions share a resume token");
    return api::Status::okStatus();
}

/** Every live slot of an image as (container id, slot index), by id. */
using LiveSlots = std::vector<std::pair<cop::ContainerId, std::size_t>>;

/** The live slot holding `id`, or nullptr. */
const cop::ClusterImage::SlotImage *
findLive(const cop::ClusterImage &c, const LiveSlots &live,
         cop::ContainerId id)
{
    const auto it = std::lower_bound(
        live.begin(), live.end(), id,
        [](const auto &e, cop::ContainerId v) { return e.first < v; });
    return it != live.end() && it->first == id ? &c.slots[it->second]
                                               : nullptr;
}

/**
 * The slab invariants Cluster::restoreState rebuilds its id table, app
 * lists and free list from. Create hands out ids from [1, next_id)
 * once each and interns the app first; destroy pushes the slot onto
 * the free list and create pops it, so the list holds every dead slot
 * exactly once and no live one. Node indices depend on the world's
 * cluster, so applySnapshot checks those.
 */
api::Status
checkCluster(const cop::ClusterImage &c, LiveSlots *live)
{
    for (std::size_t i = 0; i < c.slots.size(); ++i) {
        if (!c.slots[i].live)
            continue;
        const cop::Container &ct = c.slots[i].c;
        if (ct.id < 1 || ct.id >= c.next_id)
            return corrupt("snapshot: container id " +
                           std::to_string(ct.id) +
                           " outside [1, next_id)");
        if (ct.app < 0 || static_cast<std::size_t>(ct.app) >= c.apps.size())
            return corrupt("snapshot: container " + std::to_string(ct.id) +
                           " names an app index past the interned names");
        live->emplace_back(ct.id, i);
    }
    std::sort(live->begin(), live->end());
    if (std::adjacent_find(live->begin(), live->end(),
                           [](const auto &a, const auto &b) {
                               return a.first == b.first;
                           }) != live->end())
        return corrupt("snapshot: two live slots hold one container id");
    std::vector<bool> listed(c.slots.size(), false);
    for (std::int32_t slot : c.free_slots) {
        if (slot < 0 || static_cast<std::size_t>(slot) >= c.slots.size())
            return corrupt("snapshot: free slot " + std::to_string(slot) +
                           " out of range");
        const auto i = static_cast<std::size_t>(slot);
        if (c.slots[i].live || listed[i])
            return corrupt("snapshot: free list names slot " +
                           std::to_string(slot) +
                           ", which is live or already listed");
        listed[i] = true;
    }
    if (c.free_slots.size() != c.slots.size() - live->size())
        return corrupt("snapshot: a dead slot is missing from the free "
                       "list");
    return api::Status::okStatus();
}

/**
 * The watt-cap list Ecovisor::restoreState writes into the cluster's
 * cap column: strictly ascending ids (capture walks the live list,
 * which runs in id order), each naming a container live in the same
 * image, and each cap finite and non-negative (+inf means uncapped
 * and is never listed). A destroyed container's cap dies with its
 * slot, so capture lists only live containers, and every listed cap
 * passed the same checks when it was set: no valid writer breaks any
 * of these, and a list that does has no slot to restore into.
 */
api::Status
checkPowercaps(const Snapshot &s, const LiveSlots &live)
{
    const auto &caps = s.eco.powercaps;
    for (std::size_t k = 0; k < caps.size(); ++k) {
        const auto &[id, cap_w] = caps[k];
        if (k > 0 && id <= caps[k - 1].first)
            return corrupt("snapshot: powercaps not strictly ascending");
        if (!findLive(s.cluster, live, id))
            return corrupt("snapshot: powercap for container " +
                           std::to_string(id) + ", which is not live");
        if (!(cap_w >= 0.0) || std::isinf(cap_w))
            return corrupt("snapshot: powercap for container " +
                           std::to_string(id) +
                           " is not finite and non-negative");
    }
    return api::Status::okStatus();
}

/**
 * The emergency list Ecovisor::restoreState flags in the cluster's
 * emergency column. Capture reads the flags of the registered apps'
 * containers in settle order (app name, then id), and a flag dies with
 * its slot, so every listed id is live in the same image and owned by
 * a registered app, and the list ascends strictly by (app name, id).
 */
api::Status
checkEmergencyCaps(const Snapshot &s, const LiveSlots &live)
{
    std::vector<std::string_view> registered;
    for (const auto &a : s.eco.apps)
        registered.push_back(a.name);
    std::sort(registered.begin(), registered.end());
    std::pair<std::string_view, cop::ContainerId> prev;
    for (std::size_t k = 0; k < s.eco.emergency_capped.size(); ++k) {
        const cop::ContainerId id = s.eco.emergency_capped[k];
        const auto *slot = findLive(s.cluster, live, id);
        if (!slot)
            return corrupt("snapshot: emergency cap for container " +
                           std::to_string(id) + ", which is not live");
        const std::pair<std::string_view, cop::ContainerId> key{
            s.cluster.apps[static_cast<std::size_t>(slot->c.app)], id};
        if (!std::binary_search(registered.begin(), registered.end(),
                                key.first))
            return corrupt("snapshot: emergency cap for container " +
                           std::to_string(id) +
                           ", whose app is not registered");
        if (k > 0 && !(prev < key))
            return corrupt("snapshot: emergency caps not strictly "
                           "ascending by (app name, id)");
        prev = key;
    }
    return api::Status::okStatus();
}

} // namespace

// ---------------------------------------------------------------------
// Snapshot.
// ---------------------------------------------------------------------

Snapshot
captureSnapshot(const World &w)
{
    if (!w.sim || !w.eco || !w.cluster)
        fatal("ckpt::captureSnapshot: sim/eco/cluster are required");
    Snapshot s;
    s.tick = w.sim->clock().tickCount();
    s.now_s = w.sim->now();
    s.cluster = w.cluster->captureState();
    s.eco = w.eco->captureState();
    if (w.phys && w.phys->hasBattery()) {
        s.has_phys_battery = true;
        s.phys_battery_wh = w.phys->battery().energyWh();
    }
    if (w.grid) {
        s.has_grid = true;
        s.grid_energy_wh = w.grid->totalEnergyWh();
        s.grid_carbon_g = w.grid->totalCarbonG();
    }
    s.injector_armed_ticks = w.injector ? w.injector->armedTicks() : 0;
    if (w.server) {
        s.has_server = true;
        s.server = w.server->captureSessions();
    }
    return s;
}

void
encodeSnapshot(std::vector<std::uint8_t> &out, const Snapshot &s)
{
    WireWriter w(&out);
    w.u32(kSnapshotMagic);
    w.u32(kSnapshotVersion);
    putI64(w, s.tick);
    putI64(w, s.now_s);
    putCluster(w, s.cluster);
    putEcovisor(w, s.eco);
    w.u8(s.has_phys_battery ? 1 : 0);
    w.f64(s.phys_battery_wh);
    w.u8(s.has_grid ? 1 : 0);
    w.f64(s.grid_energy_wh);
    w.f64(s.grid_carbon_g);
    putI64(w, s.injector_armed_ticks);
    w.u8(s.has_server ? 1 : 0);
    if (s.has_server)
        putSessions(w, s.server);
}

api::Status
decodeSnapshot(const std::vector<std::uint8_t> &payload, Snapshot *out)
{
    WireReader r(payload.data(), payload.size());
    std::uint32_t magic = 0, version = 0;
    if (!r.u32(&magic) || magic != kSnapshotMagic)
        return corrupt("snapshot: bad magic");
    if (!r.u32(&version) || version != kSnapshotVersion)
        return corrupt("snapshot: unknown version " +
                       std::to_string(version));
    std::uint8_t has_batt = 0, has_grid = 0, has_server = 0;
    if (!getI64(r, &out->tick) || !getI64(r, &out->now_s) ||
        !getCluster(r, &out->cluster) || !getEcovisor(r, &out->eco) ||
        !r.u8(&has_batt) || !r.f64(&out->phys_battery_wh) ||
        !r.u8(&has_grid) || !r.f64(&out->grid_energy_wh) ||
        !r.f64(&out->grid_carbon_g) ||
        !getI64(r, &out->injector_armed_ticks) || !r.u8(&has_server))
        return corrupt("snapshot: truncated structure");
    out->has_phys_battery = has_batt != 0;
    out->has_grid = has_grid != 0;
    out->has_server = has_server != 0;
    if (out->has_server) {
        const api::Status st = getSessions(r, &out->server);
        if (!st.ok())
            return st;
    }
    if (!r.done())
        return corrupt("snapshot: trailing bytes");
    LiveSlots live;
    api::Status st = checkCluster(out->cluster, &live);
    if (st.ok())
        st = checkPowercaps(*out, live);
    if (st.ok())
        st = checkEmergencyCaps(*out, live);
    return st;
}

api::Status
applySnapshot(const World &w, const Snapshot &s)
{
    if (!w.sim || !w.eco || !w.cluster)
        fatal("ckpt::applySnapshot: sim/eco/cluster are required");
    const bool world_batt = w.phys && w.phys->hasBattery();
    if (s.has_phys_battery != world_batt)
        return corrupt("snapshot: physical-battery shape mismatch");
    if (s.has_grid != (w.grid != nullptr))
        return corrupt("snapshot: grid shape mismatch");
    if (s.has_server != (w.server != nullptr))
        return corrupt("snapshot: session-plane shape mismatch");
    if (!w.injector && s.injector_armed_ticks != 0)
        return corrupt("snapshot: armed fault ticks without an "
                       "injector to restore them into");
    for (const auto &slot : s.cluster.slots)
        if (slot.live &&
            (slot.c.node < 0 || slot.c.node >= w.cluster->nodeCount()))
            return corrupt("snapshot: container " +
                           std::to_string(slot.c.id) +
                           " on a node this cluster does not have");
    w.cluster->restoreState(s.cluster);
    w.eco->restoreState(s.eco);
    if (world_batt)
        w.phys->battery().setEnergyWh(s.phys_battery_wh);
    if (w.grid)
        w.grid->restoreMeters(s.grid_energy_wh, s.grid_carbon_g);
    if (w.injector)
        w.injector->restoreArmedTicks(s.injector_armed_ticks);
    if (w.server)
        w.server->restoreSessions(s.server);
    w.sim->restoreClock(s.now_s, s.tick);
    return api::Status::okStatus();
}

// ---------------------------------------------------------------------
// WAL records.
// ---------------------------------------------------------------------

void
encodeTickRecord(std::vector<std::uint8_t> &out, std::int64_t tick,
                 TimeS start_s, std::span<const net::SessionEvent> events,
                 std::span<const net::ServerCore::PendingOp> ops)
{
    WireWriter w(&out);
    w.u32(kWalMagic);
    w.u32(kWalVersion);
    putI64(w, tick);
    putI64(w, start_s);
    w.u32(static_cast<std::uint32_t>(events.size()));
    for (const net::SessionEvent &ev : events) {
        w.u8(static_cast<std::uint8_t>(ev.kind));
        w.u32(ev.session);
        w.u64(ev.token);
    }
    w.u32(static_cast<std::uint32_t>(ops.size()));
    for (const auto &op : ops) {
        w.u32(op.session);
        w.u32(op.req_id);
        w.u8(static_cast<std::uint8_t>(op.op));
        w.u32(op.id);
        w.f64(op.value);
        putString(w, op.reg.name);
        putShare(w, op.reg.share);
        w.u32(static_cast<std::uint32_t>(op.caps.size()));
        for (const net::CapEntry &e : op.caps) {
            w.u32(e.container);
            w.f64(e.cap_w);
        }
    }
}

api::Status
decodeTickRecord(const std::vector<std::uint8_t> &payload,
                 TickRecord *out)
{
    WireReader r(payload.data(), payload.size());
    std::uint32_t magic = 0, version = 0;
    if (!r.u32(&magic) || magic != kWalMagic)
        return corrupt("wal: bad record magic");
    if (!r.u32(&version) || version != kWalVersion)
        return corrupt("wal: unknown record version " +
                       std::to_string(version));
    if (!getI64(r, &out->tick) || !getI64(r, &out->start_s))
        return corrupt("wal: truncated record header");
    std::uint32_t n = 0;
    if (!getCount(r, kEventBytes, &n))
        return corrupt("wal: bad event count");
    out->events.clear();
    out->events.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        net::SessionEvent ev;
        std::uint8_t kind = 0;
        if (!r.u8(&kind) || !r.u32(&ev.session) || !r.u64(&ev.token))
            return corrupt("wal: truncated session event");
        if (kind > 4)
            return corrupt("wal: unknown session-event kind");
        ev.kind = static_cast<net::SessionEvent::Kind>(kind);
        out->events.push_back(ev);
    }
    if (!getCount(r, kOpMinBytes, &n))
        return corrupt("wal: bad op count");
    out->ops.clear();
    out->ops.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        net::ServerCore::PendingOp op;
        std::uint8_t raw_op = 0;
        if (!r.u32(&op.session) || !r.u32(&op.req_id) ||
            !r.u8(&raw_op) || !r.u32(&op.id) || !r.f64(&op.value) ||
            !getString(r, &op.reg.name) || !getShare(r, &op.reg.share))
            return corrupt("wal: truncated op");
        if (!net::validOpcode(raw_op))
            return corrupt("wal: unknown opcode in op");
        op.op = static_cast<net::Opcode>(raw_op);
        std::uint32_t caps = 0;
        if (!getCount(r, kCapEntryBytes, &caps))
            return corrupt("wal: bad cap count");
        op.caps.reserve(caps);
        for (std::uint32_t k = 0; k < caps; ++k) {
            net::CapEntry e;
            if (!r.u32(&e.container) || !r.f64(&e.cap_w))
                return corrupt("wal: truncated cap entry");
            op.caps.push_back(e);
        }
        out->ops.push_back(std::move(op));
    }
    if (!r.done())
        return corrupt("wal: trailing bytes in record");
    return api::Status::okStatus();
}

std::uint64_t
snapshotDigest(const World &w)
{
    std::vector<std::uint8_t> bytes;
    encodeSnapshot(bytes, captureSnapshot(w));
    // FNV-1a 64: cheap, stable, and order-sensitive — exactly what a
    // canonical-encoding fingerprint needs (not cryptographic; the
    // threat model is divergence, not forgery).
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace ecov::ckpt
