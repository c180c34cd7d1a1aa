/**
 * @file
 * Durable record framing for the checkpoint subsystem
 * (docs/CHECKPOINT.md).
 *
 * Both durable files — the snapshot and the write-ahead log — are
 * sequences of CRC32-framed records:
 *
 *     [u32 payload length][u32 CRC32 of payload][payload bytes]
 *
 * all little-endian, matching the wire codecs the payloads are built
 * with (net/wire.h). The framing gives recovery a crisp taxonomy of
 * on-disk damage:
 *
 *  - a **torn tail** — the file ends inside a header or inside the
 *    last record's payload — is what a crash mid-append leaves behind.
 *    readRecords() truncates it: every complete record before the
 *    tear is returned, the partial bytes are discarded, and the read
 *    still succeeds. Nothing half-written is ever surfaced.
 *  - a **checksum mismatch on a complete record** is corruption, not
 *    a crash artifact (appends cannot leave a full-length record with
 *    wrong bytes). readRecords() stops and reports
 *    api::ErrorCode::DataLoss; the caller must refuse to recover from
 *    the file rather than half-apply it.
 *
 * Writes go through RecordWriter, which routes every byte through
 * fault::CrashPoint — the crash-injection tests choose the exact byte
 * the process dies on — and fsyncs per the configured policy.
 *
 * crc32() folds 64-byte blocks with carry-less multiplies where the CPU
 * has them (x86-64 with PCLMULQDQ and SSE4.1, checked once at run
 * time) and runs slicing-by-8 tables elsewhere and on the short tail.
 * Both compute the same IEEE 802.3 CRC, so no file's bytes depend on
 * the host.
 */

#ifndef ECOV_CKPT_RECORD_IO_H
#define ECOV_CKPT_RECORD_IO_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/status.h"

namespace ecov::ckpt {

/** CRC32 (IEEE 802.3, poly 0xEDB88320, reflected) of a byte range. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t n);

/** Durability policy for record appends. */
enum class FsyncPolicy
{
    /** fsync after every append (and every snapshot publish): a
     *  crash loses at most the record being written. The daemon
     *  default. An append's fsync runs on the writer's sync thread
     *  and RecordWriter::wait() collects it. */
    Always,
    /** Never fsync; durability is whatever the page cache grants.
     *  For tests and benches where the "crash" is process death, not
     *  power loss — the kernel keeps the bytes either way. */
    Never,
};

/**
 * Append-only record writer over one file. All I/O is POSIX-fd based
 * so fsync semantics are explicit; every byte is admitted through
 * fault::CrashPoint before it reaches the kernel (a crossed crash
 * point writes the partial prefix, fsyncs it, and dies).
 *
 * Under FsyncPolicy::Always, append() writes the record on the
 * caller's thread and hands its fsync to one sync thread, which the
 * writer starts on its first such append and which blocks every
 * signal, so it never takes one meant for the process. wait() returns
 * that fsync's status. append(), reset(), sync(), open(), close() and
 * the destructor wait first, so at most one fsync is in flight and no
 * write overlaps it. FsyncPolicy::Never starts no thread.
 */
class RecordWriter
{
  public:
    RecordWriter();
    ~RecordWriter();

    RecordWriter(const RecordWriter &) = delete;
    RecordWriter &operator=(const RecordWriter &) = delete;

    /** Open (creating or appending). */
    api::Status open(const std::string &path, FsyncPolicy fsync);

    /**
     * Frame and append one record. Under FsyncPolicy::Always the
     * record is durable once wait() returns Ok, not when this
     * returns. A failed fsync of the previous append is returned
     * here, before anything is written, if wait() did not collect it.
     */
    api::Status append(const std::vector<std::uint8_t> &payload);

    /**
     * Block until the last append's fsync has run and return its
     * status: Ok with none pending, Unavailable naming the fsync when
     * it failed.
     */
    api::Status wait();

    /** Truncate the file to empty (WAL reset after a snapshot). */
    api::Status reset();

    /** fsync regardless of policy (snapshot publish path). */
    api::Status sync();

    void close();

    bool isOpen() const { return fd_ >= 0; }

  private:
    class SyncThread;

    int fd_ = -1;
    FsyncPolicy fsync_ = FsyncPolicy::Always;
    std::string path_; ///< diagnostics only
    std::unique_ptr<SyncThread> sync_thread_; ///< first Always append on
};

/**
 * Read every record in a file. Returns Ok with the complete records
 * (torn tail truncated, `*truncated_bytes` reporting how many trailing
 * bytes were discarded), DataLoss on a checksum mismatch, Unavailable
 * on I/O failure. A missing file is Ok with zero records.
 */
api::Status readRecords(const std::string &path,
                        std::vector<std::vector<std::uint8_t>> *out,
                        std::size_t *truncated_bytes = nullptr);

/**
 * Publish a single-record file atomically: write `<path>.tmp` (via
 * RecordWriter, so crash points apply), fsync it, rename over `path`,
 * fsync the directory. Readers therefore always see either the old
 * complete file or the new complete file — never a torn snapshot.
 * Under FsyncPolicy::Never neither fsync runs; the rename is still
 * atomic against process death.
 */
api::Status publishRecordFile(const std::string &path,
                              const std::vector<std::uint8_t> &payload,
                              FsyncPolicy fsync);

} // namespace ecov::ckpt

#endif // ECOV_CKPT_RECORD_IO_H
