#include "ckpt/snapshot.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string_view>
#include <utility>

#include "energy/grid_connection.h"
#include "energy/physical_energy_system.h"
#include "fault/injector.h"
#include "net/wire.h"
#include "sim/simulation.h"
#include "util/logging.h"

namespace ecov::ckpt {

namespace {

using net::WireReader;
using net::WireSizer;
using net::WireWriter;

api::Status
corrupt(const std::string &what)
{
    return api::Status::error(api::ErrorCode::DataLoss,
                              "ckpt: " + what);
}

// ---------------------------------------------------------------------
// Field lists (net/wire.h): each record's layout, declared once for the
// writer, the bounded reader and the sizer that bounds forged counts.
// ---------------------------------------------------------------------

constexpr auto i32Field = [](auto &io, auto &v) { return io.i32(v); };
constexpr auto i64Field = [](auto &io, auto &v) { return io.i64(v); };
constexpr auto strField = [](auto &io, auto &v) { return io.str(v); };

constexpr auto settlementFields = [](auto &io, auto &s) {
    return io.i64(s.start_s) && io.i64(s.dt_s) && io.f64(s.demand_w) &&
           io.f64(s.solar_w) && io.f64(s.solar_used_w) &&
           io.f64(s.batt_discharge_w) && io.f64(s.grid_w) &&
           io.f64(s.grid_to_demand_w) && io.f64(s.batt_charge_solar_w) &&
           io.f64(s.batt_charge_grid_w) && io.f64(s.curtailed_w) &&
           io.f64(s.carbon_g) && io.f64(s.intensity_g_per_kwh) &&
           io.f64(s.unserved_w);
};

constexpr auto vesFields = [](auto &io, auto &v) {
    return io.f64(v.charge_rate_w) && io.f64(v.max_discharge_w) &&
           io.flag(v.has_battery) && io.f64(v.battery_energy_wh) &&
           settlementFields(io, v.last) && io.f64(v.total_energy_wh) &&
           io.f64(v.total_grid_wh) && io.f64(v.total_solar_wh) &&
           io.f64(v.total_curtailed_wh) && io.f64(v.total_carbon_g);
};

/** A slab slot; a dead one is its liveness and generation alone. */
constexpr auto slotFields = [](auto &io, auto &s) {
    return io.flag(s.live) && io.u32(s.generation) &&
           (!s.live ||
            (io.i64(s.c.id) && io.i32(s.c.app) && io.i32(s.c.node) &&
             io.f64(s.c.cores) && io.f64(s.c.util_cap) &&
             io.f64(s.c.demand) && io.f64(s.c.gpu_util)));
};

constexpr auto clusterFields = [](auto &io, auto &c) {
    return io.list(c.slots, slotFields) &&
           io.list(c.free_slots, i32Field) && io.list(c.apps, strField) &&
           io.i64(c.next_id);
};

constexpr auto appFields = [](auto &io, auto &a) {
    return io.str(a.name) && net::shareFields(io, a.share) &&
           vesFields(io, a.ves);
};

constexpr auto powercapFields = [](auto &io, auto &p) {
    return io.i64(p.first) && io.f64(p.second);
};

constexpr auto ecovisorFields = [](auto &io, auto &e) {
    return io.list(e.apps, appFields) &&
           io.list(e.powercaps, powercapFields) &&
           io.list(e.emergency_capped, i64Field) &&
           io.i64(e.degraded_ticks) && io.i64(e.slo_violation_ticks) &&
           io.f64(e.unserved_wh) && io.f64(e.net_metered_wh) &&
           io.f64(e.curtailed_wh) && io.i64(e.last_settled_s) &&
           io.i64(e.last_dt_s) && io.f64(e.last_site_solar_w) &&
           io.f64(e.last_intensity) && io.i64(e.settled_ticks);
};

/** One dedup-window entry: a request id and its response's bytes. */
using WindowEntry = std::pair<std::uint32_t, std::string_view>;

constexpr auto windowEntryFields = [](auto &io, auto &e) {
    return io.u32(e.first) && io.str(e.second);
};

// A dedup window is flat in memory (ids, ends and one byte arena) but
// a counted list of window entries on disk, so each Io walks it by hand.

// Each field is a vector append whose fast path is a few instructions.
// Once the field lists are inlined into an encoder, GCC stops inlining
// most of those appends and calls an out-of-line insert per field,
// which made the snapshot encode 2.5 times slower (docs/PERF.md §13).
// So the two loops that write most durable bytes, the dedup windows
// and the WAL's ops, are flattened.
[[gnu::flatten]] bool
dedupWindow(WireWriter &w, const net::DedupWindow &d)
{
    const auto *arena = reinterpret_cast<const char *>(d.bytes.data());
    w.u32(static_cast<std::uint32_t>(d.ids.size()));
    for (std::size_t k = 0; k < d.ids.size(); ++k) {
        const WindowEntry e(
            d.ids[k], std::string_view(arena + d.start(k),
                                       d.ends[k] - d.start(k)));
        windowEntryFields(w, e);
    }
    return true;
}

bool
dedupWindow(WireReader &r, net::DedupWindow &d)
{
    std::uint32_t n = 0;
    if (!r.count(n, net::minBytes<WindowEntry>(windowEntryFields)))
        return false;
    d.ids.reserve(n);
    d.ends.reserve(n);
    for (std::uint32_t k = 0; k < n; ++k) {
        WindowEntry e;
        if (!windowEntryFields(r, e))
            return false;
        d.ids.push_back(e.first);
        d.bytes.insert(d.bytes.end(), e.second.begin(), e.second.end());
        d.ends.push_back(static_cast<std::uint32_t>(d.bytes.size()));
    }
    return true;
}

constexpr bool
dedupWindow(WireSizer &s, const net::DedupWindow &)
{
    return s.u32(0);
}

constexpr auto refFields = [](auto &io, auto &ref) {
    return io.i32(ref.slot) && io.u32(ref.generation);
};

constexpr auto sessionFields = [](auto &io, auto &s) {
    return io.u32(s.id) && io.u64(s.token) && io.flag(s.bound) &&
           io.u32(s.lease_left) && io.u32(s.committed_max) &&
           io.list(s.apps, i32Field) && io.list(s.containers, refFields) &&
           dedupWindow(io, s.done);
};

/** Everything after the magic and version; the session plane only
 *  when the world has one. */
constexpr auto snapshotFields = [](auto &io, auto &s) {
    return io.i64(s.tick) && io.i64(s.now_s) &&
           clusterFields(io, s.cluster) && ecovisorFields(io, s.eco) &&
           io.flag(s.has_phys_battery) && io.f64(s.phys_battery_wh) &&
           io.flag(s.has_grid) && io.f64(s.grid_energy_wh) &&
           io.f64(s.grid_carbon_g) && io.i64(s.injector_armed_ticks) &&
           io.flag(s.has_server) &&
           (!s.has_server ||
            (io.u32(s.server.next_session) &&
             io.list(s.server.sessions, sessionFields)));
};

constexpr auto eventFields = [](auto &io, auto &ev) {
    return io.code(ev.kind,
                   [](std::uint8_t kind) {
                       return kind <= static_cast<std::uint8_t>(
                                          net::SessionEvent::Kind::
                                              DiscardVirgin);
                   }) &&
           io.u32(ev.session) && io.u64(ev.token);
};

/** A logged op. Only coalesced ops are ever logged, so the opcode
 *  rule refuses every other one. */
constexpr auto opFields = [](auto &io, auto &op) {
    return io.u32(op.session) && io.u32(op.req_id) &&
           io.code(op.op,
                   [](std::uint8_t raw) {
                       return net::validOpcode(raw) &&
                              net::isCoalesced(static_cast<net::Opcode>(raw));
                   }) &&
           io.u32(op.id) && io.f64(op.value) && io.str(op.reg.name) &&
           net::shareFields(io, op.reg.share) &&
           io.list(op.caps, net::capEntryFields);
};

/** A WAL record after its magic and version, from its parts: the tick
 *  loop encodes the server's canonical batch where it lies. */
constexpr auto tickRecordFields = [](auto &io, auto &tick, auto &start_s,
                                     auto &events, auto &ops) {
    return io.i64(tick) && io.i64(start_s) && io.list(events, eventFields) &&
           io.list(ops, opFields);
};

// The least each counted element takes, which bounds forged counts.
static_assert(net::minBytes<core::VesImage>(vesFields) == 177);
static_assert(net::minBytes<cop::ClusterImage::SlotImage>(slotFields) == 5);
static_assert(net::minBytes<core::EcovisorImage::AppImage>(appFields) ==
              198);
static_assert(net::minBytes<net::SessionImage>(sessionFields) == 33);
static_assert(net::minBytes<net::SessionEvent>(eventFields) == 13);
static_assert(net::minBytes<net::ServerCore::PendingOp>(opFields) == 46);

/** A payload's leading magic and version, as `what` names them. */
api::Status
checkHeader(WireReader &r, std::uint32_t magic, std::uint32_t version,
            const std::string &what)
{
    std::uint32_t m = 0, v = 0;
    if (!r.u32(m) || m != magic)
        return corrupt(what + ": bad magic");
    if (!r.u32(v) || v != version)
        return corrupt(what + ": unknown version " + std::to_string(v));
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

/** True when `v` lies in [0, 1]; false for NaN. */
bool
unitInterval(double v)
{
    return v >= 0.0 && v <= 1.0;
}

/**
 * The slab invariants Cluster::restoreState rebuilds its id table, app
 * lists and free list from. Create hands out ids from [1, next_id)
 * once each and interns the app first; destroy pushes the slot onto
 * the free list and create pops it, so the list holds every dead slot
 * exactly once and no live one. The setters store demand, utilization
 * cap and GPU utilization clamped to [0, 1] and refuse NaN, and admit
 * only a positive core count that fits a node. Node indices depend on
 * the world's cluster, so applySnapshot checks those.
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
        if (!unitInterval(ct.demand) || !unitInterval(ct.util_cap) ||
            !unitInterval(ct.gpu_util))
            return corrupt("snapshot: container " + std::to_string(ct.id) +
                           " has a demand, cap or GPU utilization "
                           "outside [0, 1]");
        if (!(ct.cores > 0.0) || std::isinf(ct.cores))
            return corrupt("snapshot: container " + std::to_string(ct.id) +
                           " has a core count that is not finite and "
                           "positive");
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

/**
 * The session-plane invariants the server's tables rest on. Capture
 * walks sessions in ascending id order, every id nonzero and below the
 * allocator; newSession keeps resume tokens unique, since Resume could
 * not tell two sessions apart; and each dedup window ascends strictly
 * to at most its committed watermark, as the server's window search
 * and its admission of ids above the watermark require.
 */
api::Status
checkSessions(const net::ServerCoreImage &img)
{
    std::vector<std::uint64_t> tokens;
    net::SessionId prev = 0;
    for (const net::SessionImage &s : img.sessions) {
        if (s.id <= prev || s.id >= img.next_session)
            return corrupt("snapshot: session id " +
                           std::to_string(s.id) +
                           " out of order or outside [1, next_session)");
        prev = s.id;
        if (s.token != 0)
            tokens.push_back(s.token);
        const std::vector<std::uint32_t> &ids = s.done.ids;
        if (std::adjacent_find(ids.begin(), ids.end(),
                               std::greater_equal<>()) != ids.end())
            return corrupt("snapshot: session " + std::to_string(s.id) +
                           " dedup window not strictly ascending");
        if (!ids.empty() && ids.back() > s.committed_max)
            return corrupt("snapshot: session " + std::to_string(s.id) +
                           " dedup window above its committed "
                           "watermark");
    }
    std::sort(tokens.begin(), tokens.end());
    if (std::adjacent_find(tokens.begin(), tokens.end()) != tokens.end())
        return corrupt("snapshot: two sessions share a resume token");
    return api::Status::okStatus();
}

/**
 * The app images Ecovisor::restoreState re-registers and restores.
 * Registration interned each name in the cluster, and each VES image
 * came from a VES built from the app's share, holding a battery
 * exactly when the share has one, whose rate setters refuse negative
 * and NaN rates. The battery holds [0, its share's capacity] Wh, and
 * capture writes 0 for a VES without one. The registration rules need
 * the world's physical system, so applySnapshot checks those.
 */
api::Status
checkApps(const Snapshot &s)
{
    for (const auto &a : s.eco.apps) {
        if (std::find(s.cluster.apps.begin(), s.cluster.apps.end(),
                      a.name) == s.cluster.apps.end())
            return corrupt("snapshot: app '" + a.name +
                           "' is not interned in the cluster");
        if (a.ves.has_battery != a.share.battery.has_value())
            return corrupt("snapshot: app '" + a.name +
                           "' has a battery image its share disagrees "
                           "with");
        if (!(a.ves.charge_rate_w >= 0.0) ||
            !(a.ves.max_discharge_w >= 0.0))
            return corrupt("snapshot: app '" + a.name +
                           "' has a negative or NaN battery rate");
        const double capacity_wh =
            a.share.battery ? a.share.battery->capacity_wh : 0.0;
        if (!(a.ves.battery_energy_wh >= 0.0 &&
              a.ves.battery_energy_wh <= capacity_wh))
            return corrupt("snapshot: app '" + a.name +
                           "' has a battery energy outside [0, its "
                           "share's capacity]");
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
    snapshotFields(w, s);
}

api::Status
decodeSnapshot(const std::vector<std::uint8_t> &payload, Snapshot *out)
{
    WireReader r(payload.data(), payload.size());
    api::Status st =
        checkHeader(r, kSnapshotMagic, kSnapshotVersion, "snapshot");
    if (!st.ok())
        return st;
    if (!snapshotFields(r, *out) || !r.done())
        return corrupt("snapshot: malformed structure at byte " +
                       std::to_string(payload.size() - r.remaining()));
    LiveSlots live;
    st = checkCluster(out->cluster, &live);
    if (st.ok())
        st = checkPowercaps(*out, live);
    if (st.ok())
        st = checkEmergencyCaps(*out, live);
    if (st.ok())
        st = checkApps(*out);
    if (st.ok())
        st = checkSessions(out->server);
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
    if (world_batt &&
        !(s.phys_battery_wh >= 0.0 &&
          s.phys_battery_wh <= w.phys->battery().config().capacity_wh))
        return corrupt("snapshot: physical battery energy outside [0, "
                       "the bank's capacity]");
    for (const auto &slot : s.cluster.slots)
        if (slot.live &&
            (slot.c.node < 0 || slot.c.node >= w.cluster->nodeCount()))
            return corrupt("snapshot: container " +
                           std::to_string(slot.c.id) +
                           " on a node this cluster does not have");
    // Restore re-registers each app after the ones before it, under
    // the rules that registered it live.
    const std::span<const core::EcovisorImage::AppImage> apps = s.eco.apps;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const api::Status st =
            w.eco->checkApp(apps[i].name, apps[i].share, apps.first(i));
        if (!st.ok())
            return corrupt("snapshot: " + st.message());
    }
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

// Flattened for the reason the dedup-window writer is.
[[gnu::flatten]] void
encodeTickRecord(std::vector<std::uint8_t> &out, std::int64_t tick,
                 TimeS start_s, std::span<const net::SessionEvent> events,
                 std::span<const net::ServerCore::PendingOp> ops)
{
    WireWriter w(&out);
    w.u32(kWalMagic);
    w.u32(kWalVersion);
    tickRecordFields(w, tick, start_s, events, ops);
}

api::Status
decodeTickRecord(const std::vector<std::uint8_t> &payload,
                 TickRecord *out)
{
    WireReader r(payload.data(), payload.size());
    const api::Status st = checkHeader(r, kWalMagic, kWalVersion, "wal");
    if (!st.ok())
        return st;
    if (!tickRecordFields(r, out->tick, out->start_s, out->events,
                          out->ops) ||
        !r.done())
        return corrupt("wal: malformed record at byte " +
                       std::to_string(payload.size() - r.remaining()));
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
