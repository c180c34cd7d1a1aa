/**
 * @file
 * Snapshot and WAL payload codecs + the world binding
 * (docs/CHECKPOINT.md).
 *
 * A **snapshot** is one record (record_io.h framing) holding the
 * complete runtime state of an ecovisor world at a tick boundary:
 * simulation clock position, the COP slab (cop::ClusterImage), the
 * ecovisor and every app's VES (core::EcovisorImage), physical
 * battery charge and grid meters, the fault injector's armed-tick
 * counter, and — when a transport front-end is attached — the session
 * plane (net::ServerCoreImage). Everything in the image is state that
 * determines future committed results; derived observables (telemetry
 * history, server stats, outboxes) are deliberately excluded, so two
 * worlds that will behave identically encode identically.
 *
 * A **WAL record** is one tick's input: the session-plane events that
 * occurred since the previous tick plus the canonically-ordered
 * committed mutation batch, stamped with the clock position it was
 * applied at. Recovery = load snapshot + replay WAL records through
 * the normal commit path (enqueueForReplay + one sim step each) —
 * the replayed ticks run the very same settlement code in the very
 * same order, so the result is bit-identical to the uninterrupted
 * run at --tolerance=0.
 *
 * All integers/doubles use the little-endian wire primitives
 * (net/wire.h); doubles travel as IEEE-754 bit patterns, preserving
 * bit-identity through the file. Each record's layout is one field
 * list in snapshot.cc, which writes, reads and sizes it.
 */

#ifndef ECOV_CKPT_SNAPSHOT_H
#define ECOV_CKPT_SNAPSHOT_H

#include <cstdint>
#include <span>
#include <vector>

#include "api/status.h"
#include "core/ecovisor.h"
#include "net/server.h"
#include "util/units.h"

namespace ecov::sim {
class Simulation;
}
namespace ecov::energy {
class PhysicalEnergySystem;
class GridConnection;
}
namespace ecov::fault {
class FaultInjector;
}

namespace ecov::ckpt {

/** Snapshot format magic + revision (first fields of the payload).
 *  Revision 2 keeps each dedup-window entry as its reply (opcode and
 *  payload, in columns); no reader of revision 1, whose entries were
 *  whole response frames, is kept, so decode refuses it. */
inline constexpr std::uint32_t kSnapshotMagic = 0x504B4345u; // "ECKP"
inline constexpr std::uint32_t kSnapshotVersion = 2;
/** WAL record magic + revision. */
inline constexpr std::uint32_t kWalMagic = 0x574B4345u; // "ECKW"
inline constexpr std::uint32_t kWalVersion = 1;

/**
 * Borrowed bindings to the subsystems a checkpoint covers. sim, eco
 * and cluster are required; the rest may be null when the world runs
 * without them (no grid, no fault schedule, no transport front-end) —
 * presence is encoded, and restore requires the same shape.
 */
struct World
{
    sim::Simulation *sim = nullptr;
    core::Ecovisor *eco = nullptr;
    cop::Cluster *cluster = nullptr;
    energy::PhysicalEnergySystem *phys = nullptr;
    energy::GridConnection *grid = nullptr;
    net::ServerCore *server = nullptr;
    fault::FaultInjector *injector = nullptr;
};

/** Decoded snapshot, held as images until applied. */
struct Snapshot
{
    std::int64_t tick = 0; ///< clock tick count at capture
    TimeS now_s = 0;       ///< clock time at capture
    cop::ClusterImage cluster;
    core::EcovisorImage eco;
    bool has_phys_battery = false;
    double phys_battery_wh = 0.0;
    bool has_grid = false;
    double grid_energy_wh = 0.0;
    double grid_carbon_g = 0.0;
    std::int64_t injector_armed_ticks = 0;
    bool has_server = false;
    net::ServerCoreImage server;
};

/** One tick's WAL record. */
struct TickRecord
{
    std::int64_t tick = 0; ///< clock tick count when applied
    TimeS start_s = 0;     ///< tick start time
    std::vector<net::SessionEvent> events; ///< occurrence order
    std::vector<net::ServerCore::PendingOp> ops; ///< canonical order
};

/** Capture the world into a Snapshot (tick-boundary only). */
Snapshot captureSnapshot(const World &w);

/** Encode / decode the snapshot payload. Decode returns DataLoss on
 *  bad magic, unknown version, malformed structure (a flag byte other
 *  than 0 or 1 included), a live slot whose id is outside
 *  [1, next_id) or repeated or whose app index is past the interned
 *  names, a free list that is out of range, names a live slot,
 *  repeats one or misses a dead one, session ids that are
 *  zero, not strictly ascending or not below next_session, a resume
 *  token two sessions share, a dedup window out of order or above
 *  its watermark, a dedup-window entry whose opcode is not a coalesced
 *  request's response, whose payload is under 2 or over 516 bytes, or
 *  whose status is not a wire code, a watt-cap list that is out of
 *  order, names a container not live in the image, or holds a cap
 *  that is not finite and non-negative, an emergency list that names
 *  a container not live in the image or not owned by a registered
 *  app, or is not strictly ascending by (app name, id), or an app
 *  whose name is not interned in the cluster, whose VES holds a
 *  battery its share lacks or the reverse, or whose charge or
 *  discharge rate is negative or NaN. */
void encodeSnapshot(std::vector<std::uint8_t> &out, const Snapshot &s);
api::Status decodeSnapshot(const std::vector<std::uint8_t> &payload,
                           Snapshot *out);

/**
 * Apply a snapshot to a freshly constructed world (same configs, no
 * apps registered). Restores cluster first, then the ecovisor (which
 * re-interns against it), then energy/fault/session state, then the
 * clock. Returns DataLoss, before anything mutates, when the
 * snapshot's shape does not match the world (e.g. a grid-less world
 * restoring a grid snapshot, armed fault ticks without an injector,
 * or a container on a node the world's cluster does not have), or
 * when an app would fail Ecovisor::checkApp against the apps before it.
 */
api::Status applySnapshot(const World &w, const Snapshot &s);

/**
 * Encode / decode one WAL record payload. The encoder takes the
 * record's parts, so the tick loop encodes the server's canonical
 * batch where it lies instead of copying it into a TickRecord; decode
 * fills one.
 */
void encodeTickRecord(std::vector<std::uint8_t> &out, std::int64_t tick,
                      TimeS start_s,
                      std::span<const net::SessionEvent> events,
                      std::span<const net::ServerCore::PendingOp> ops);
api::Status decodeTickRecord(const std::vector<std::uint8_t> &payload,
                             TickRecord *out);

/**
 * FNV-1a 64 digest of the world's current snapshot encoding — the
 * full-state fingerprint the equivalence tests (and ci/server_smoke)
 * compare between an uninterrupted run and a crashed-and-recovered
 * one. Bit-identical state <=> equal digests, by construction: the
 * digest hashes the same canonical encoding the snapshot persists.
 */
std::uint64_t snapshotDigest(const World &w);

} // namespace ecov::ckpt

#endif // ECOV_CKPT_SNAPSHOT_H
