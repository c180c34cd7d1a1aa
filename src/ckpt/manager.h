/**
 * @file
 * The checkpoint manager: snapshot cadence, WAL appends, and the
 * recovery algorithm (docs/CHECKPOINT.md).
 *
 * Driving loop contract (ecovisord's tick loop, or a test harness):
 *
 *     mgr.recover();                 // once, before the loop
 *     loop {
 *         ...process transport frames / stage mutations...
 *         mgr.beginTick();           // WAL: write this tick's inputs
 *         sim.step();                // commit + settle
 *         mgr.endTick();             // inputs durable; snapshot every
 *         ...deliver replies...      // K ticks
 *     }
 *
 * beginTick() writes the tick's inputs *before* they are applied — the
 * write-ahead discipline — and under FsyncPolicy::Always their fsync
 * runs on the WAL writer's sync thread while sim.step() runs.
 * endTick() waits for it first, so the inputs are durable before
 * endTick() returns, and no reply, snapshot or WAL reset leaves the
 * process before then. A crash at any byte offset, or in mid-step,
 * leaves either (a) a torn tail the next recovery truncates, or after
 * a power loss no record at all (the tick never happened, and its ops
 * were never acked as committed) or (b) a complete record the next
 * recovery replays. Either way the recovered world is bit-identical
 * to some uninterrupted prefix of the run, and continues
 * deterministically from there.
 */

#ifndef ECOV_CKPT_MANAGER_H
#define ECOV_CKPT_MANAGER_H

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/record_io.h"
#include "ckpt/snapshot.h"

namespace ecov::ckpt {

/** Durability knobs (ecovisord flags map 1:1 onto these). */
struct CheckpointOptions
{
    std::string dir;                ///< state directory (created)
    std::int64_t every_ticks = 32;  ///< snapshot cadence; <=0 = never
    FsyncPolicy fsync = FsyncPolicy::Always;
};

/**
 * Binds a World to a state directory. Not thread-safe; call from the
 * tick loop's thread only (the same thread that steps the simulation).
 */
class CheckpointManager
{
  public:
    CheckpointManager(const World &world, CheckpointOptions options);

    /**
     * Recover from the state directory, then arm the WAL for new
     * appends. Idempotent inputs: an empty/missing directory is a
     * fresh start (Ok, zero ticks replayed).
     *
     * The algorithm validates **everything** — snapshot checksum and
     * structure, every WAL record's checksum and structure, the WAL's
     * tick contiguity from the snapshot on, and that session traffic
     * has a ServerCore to replay into — before mutating any world
     * state, so a DataLoss return means the world is untouched:
     * corruption is never half-applied. A torn WAL (or snapshot tmp)
     * tail is truncated silently, per record_io.h's taxonomy.
     *
     * Postcondition on Ok: world state equals the uninterrupted run
     * at tick `recoveredTick()`; every previously-bound session is
     * detached with a full lease awaiting Resume; a fresh snapshot is
     * on disk and the WAL is empty; session-event recording is armed.
     */
    api::Status recover();

    /**
     * Write this tick's inputs (drained session events + the
     * canonical mutation batch) to the WAL; under FsyncPolicy::Always
     * their fsync runs while the tick steps. Call immediately before
     * sim.step().
     */
    api::Status beginTick();

    /**
     * The durability barrier: wait for the WAL record's fsync and
     * return its failure, then snapshot every `every_ticks` ticks
     * (tick-count modulo, so the cadence phase survives recovery).
     * Call immediately after sim.step(), and deliver the tick's
     * replies only after it returns Ok.
     */
    api::Status endTick();

    /** Force a snapshot now (daemon shutdown path). */
    api::Status writeSnapshot();

    /** Full-state digest of the bound world, right now. */
    std::uint64_t digest() const { return snapshotDigest(world_); }

    /** Tick the world stood at when recover() returned. */
    std::int64_t recoveredTick() const { return recovered_tick_; }

    /** WAL ticks replayed by recover(). */
    std::int64_t replayedTicks() const { return replayed_ticks_; }

    std::string snapshotPath() const;
    std::string walPath() const;

  private:
    World world_;
    CheckpointOptions options_;
    RecordWriter wal_;
    /** Encode buffers reused across ticks and snapshots: each keeps
     *  its capacity, so a steady-state tick maps no fresh pages. */
    std::vector<std::uint8_t> tick_buf_;
    std::vector<std::uint8_t> snapshot_buf_;
    bool recovered_ = false;
    std::int64_t recovered_tick_ = 0;
    std::int64_t replayed_ticks_ = 0;
};

} // namespace ecov::ckpt

#endif // ECOV_CKPT_MANAGER_H
