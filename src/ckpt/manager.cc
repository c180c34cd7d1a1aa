#include "ckpt/manager.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>

#include "sim/simulation.h"
#include "util/logging.h"

namespace ecov::ckpt {

CheckpointManager::CheckpointManager(const World &world,
                                     CheckpointOptions options)
    : world_(world), options_(std::move(options))
{
    if (!world_.sim || !world_.eco || !world_.cluster)
        fatal("CheckpointManager: sim/eco/cluster are required");
    if (options_.dir.empty())
        fatal("CheckpointManager: state directory must be set");
}

std::string
CheckpointManager::snapshotPath() const
{
    return options_.dir + "/snapshot.eckp";
}

std::string
CheckpointManager::walPath() const
{
    return options_.dir + "/wal.eckw";
}

api::Status
CheckpointManager::recover()
{
    if (recovered_)
        fatal("CheckpointManager::recover: called twice");
    if (::mkdir(options_.dir.c_str(), 0755) != 0 && errno != EEXIST)
        return api::Status::error(api::ErrorCode::Unavailable,
                                  "ckpt: mkdir " + options_.dir + ": " +
                                      std::strerror(errno));

    // Phase 1: read + validate EVERYTHING before touching the world.
    std::vector<std::vector<std::uint8_t>> snap_recs;
    auto st = readRecords(snapshotPath(), &snap_recs);
    if (!st.ok())
        return st;
    bool have_snapshot = false;
    Snapshot snap;
    if (!snap_recs.empty()) {
        if (snap_recs.size() != 1)
            return api::Status::error(
                api::ErrorCode::DataLoss,
                "ckpt: snapshot file holds " +
                    std::to_string(snap_recs.size()) +
                    " records (expected exactly one)");
        st = decodeSnapshot(snap_recs[0], &snap);
        if (!st.ok())
            return st;
        have_snapshot = true;
    }

    std::vector<std::vector<std::uint8_t>> wal_recs;
    st = readRecords(walPath(), &wal_recs);
    if (!st.ok())
        return st;
    std::vector<TickRecord> ticks;
    ticks.reserve(wal_recs.size());
    for (const auto &payload : wal_recs) {
        TickRecord rec;
        st = decodeTickRecord(payload, &rec);
        if (!st.ok())
            return st;
        ticks.push_back(std::move(rec));
    }
    // Replay must find each record at the tick it stands at, counting
    // from where the snapshot leaves the world and skipping older
    // leftovers exactly as phase 2 does, and session traffic needs a
    // front-end to replay into.
    std::int64_t at =
        have_snapshot ? snap.tick : world_.sim->clock().tickCount();
    for (const TickRecord &rec : ticks) {
        if (rec.tick < at)
            continue;
        if (rec.tick != at)
            return api::Status::error(
                api::ErrorCode::DataLoss,
                "ckpt: WAL gap: record for tick " +
                    std::to_string(rec.tick) + " where replay reaches " +
                    std::to_string(at));
        if (!world_.server && (!rec.events.empty() || !rec.ops.empty()))
            return api::Status::error(
                api::ErrorCode::DataLoss,
                "ckpt: WAL carries session traffic but this world has "
                "no transport front-end");
        ++at;
    }

    // Phase 2: apply. From here on every failure is fatal rather than
    // a status — a partially-restored world must not keep running;
    // phase 1 has already refused every input that could fail here.
    if (world_.server)
        world_.server->enableEventRecording(false);
    if (have_snapshot) {
        st = applySnapshot(world_, snap);
        if (!st.ok())
            return st; // shape mismatch: applySnapshot checks all
                       // shapes before mutating, so still untouched
    }

    for (const TickRecord &rec : ticks) {
        const std::int64_t at = world_.sim->clock().tickCount();
        if (rec.tick < at)
            continue; // pre-snapshot leftover (crash between snapshot
                      // publish and WAL reset)
        if (rec.tick != at) // phase 1 checked contiguity
            fatal("ckpt: WAL gap: record for tick " +
                  std::to_string(rec.tick) + " but world is at tick " +
                  std::to_string(at));
        if (!world_.server &&
            (!rec.events.empty() || !rec.ops.empty()))
            fatal(std::string("ckpt: WAL carries session traffic but "
                              "this world has no transport front-end"));
        if (world_.server) {
            for (const net::SessionEvent &ev : rec.events)
                world_.server->applySessionEvent(ev);
            for (const auto &op : rec.ops)
                world_.server->enqueueForReplay(op);
        }
        world_.sim->step();
        ++replayed_ticks_;
    }

    // Phase 3: re-arm. Connections died with the old process, so every
    // bound session starts a fresh lease awaiting Resume; then a clean
    // snapshot supersedes whatever state we recovered from.
    if (world_.server)
        world_.server->detachAllForRecovery();
    st = wal_.open(walPath(), options_.fsync);
    if (!st.ok())
        return st;
    recovered_ = true; // writeSnapshot/beginTick are now legal
    st = writeSnapshot();
    if (!st.ok())
        return st;
    if (world_.server)
        world_.server->enableEventRecording(true);
    recovered_tick_ = world_.sim->clock().tickCount();
    return api::Status::okStatus();
}

api::Status
CheckpointManager::beginTick()
{
    if (!recovered_)
        fatal("CheckpointManager::beginTick: recover() first");
    const std::int64_t tick = world_.sim->clock().tickCount();
    tick_buf_.clear();
    if (world_.server) {
        // The batch is encoded where it lies: the server's canonical
        // order is the record's order, and nothing is copied.
        const std::vector<net::SessionEvent> events =
            world_.server->drainSessionEvents();
        encodeTickRecord(tick_buf_, tick, world_.sim->now(), events,
                         world_.server->canonicalBatch());
    } else {
        encodeTickRecord(tick_buf_, tick, world_.sim->now(), {}, {});
    }
    return wal_.append(tick_buf_);
}

api::Status
CheckpointManager::endTick()
{
    if (!recovered_)
        fatal("CheckpointManager::endTick: recover() first");
    const api::Status st = wal_.wait();
    if (!st.ok())
        return st;
    if (options_.every_ticks <= 0)
        return api::Status::okStatus();
    if (world_.sim->clock().tickCount() % options_.every_ticks != 0)
        return api::Status::okStatus();
    return writeSnapshot();
}

api::Status
CheckpointManager::writeSnapshot()
{
    if (!recovered_)
        fatal("CheckpointManager::writeSnapshot: recover() first");
    snapshot_buf_.clear();
    encodeSnapshot(snapshot_buf_, captureSnapshot(world_));
    auto st =
        publishRecordFile(snapshotPath(), snapshot_buf_, options_.fsync);
    if (!st.ok())
        return st;
    // The snapshot covers everything the WAL recorded — drop it. A
    // crash between the rename above and this truncate is benign:
    // recovery skips records older than the snapshot's tick.
    return wal_.reset();
}

} // namespace ecov::ckpt
