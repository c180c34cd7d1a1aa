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
 */

#ifndef ECOV_CKPT_RECORD_IO_H
#define ECOV_CKPT_RECORD_IO_H

#include <cstdint>
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
     *  default. */
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
 */
class RecordWriter
{
  public:
    RecordWriter() = default;
    ~RecordWriter();

    RecordWriter(const RecordWriter &) = delete;
    RecordWriter &operator=(const RecordWriter &) = delete;

    /** Open (creating or appending). */
    api::Status open(const std::string &path, FsyncPolicy fsync);

    /** Frame and append one record; flushes per the fsync policy. */
    api::Status append(const std::vector<std::uint8_t> &payload);

    /** Truncate the file to empty (WAL reset after a snapshot). */
    api::Status reset();

    /** fsync regardless of policy (snapshot publish path). */
    api::Status sync();

    void close();

    bool isOpen() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
    FsyncPolicy fsync_ = FsyncPolicy::Always;
    std::string path_; ///< diagnostics only
    std::vector<std::uint8_t> header_; ///< reused record header buffer
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
 */
api::Status publishRecordFile(const std::string &path,
                              const std::vector<std::uint8_t> &payload,
                              FsyncPolicy fsync);

} // namespace ecov::ckpt

#endif // ECOV_CKPT_RECORD_IO_H
