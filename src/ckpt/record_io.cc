#include "ckpt/record_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "fault/crash_point.h"
#include "net/wire.h"

namespace ecov::ckpt {

namespace {

/**
 * Slicing-by-8 CRC32 tables, built once, on first use. Table 0 is the
 * classic byte-at-a-time table; table k advances a byte's remainder k
 * more zero bytes, so one step folds eight input bytes with eight
 * independent lookups.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < t.size(); ++k)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
        return t;
    }();
    return tables;
}

/** Little-endian 32-bit load (one instruction on x86 and arm64). */
std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

api::Status
ioError(const std::string &what)
{
    return api::Status::error(api::ErrorCode::Unavailable,
                              what + ": " + std::strerror(errno));
}

/**
 * Write through the crash point: admit the byte count, write the
 * admitted prefix, and die (after making the torn state durable) when
 * the armed offset was crossed. Plain short writes are retried.
 */
api::Status
durableWrite(int fd, const std::uint8_t *data, std::size_t n,
             const std::string &path)
{
    const std::int64_t allowed =
        fault::CrashPoint::admit(static_cast<std::int64_t>(n));
    const auto to_write = static_cast<std::size_t>(allowed);
    std::size_t off = 0;
    while (off < to_write) {
        const ssize_t w = ::write(fd, data + off, to_write - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return ioError("ckpt: write " + path);
        }
        off += static_cast<std::size_t>(w);
    }
    if (allowed < static_cast<std::int64_t>(n)) {
        // Crash point crossed: make the torn prefix durable — the
        // worst case recovery must handle — then die mid-write.
        ::fsync(fd);
        fault::CrashPoint::die();
    }
    return api::Status::okStatus();
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t n)
{
    const CrcTables &t = crcTables();
    std::uint32_t c = 0xFFFFFFFFu;
    for (; n >= 8; data += 8, n -= 8) {
        const std::uint32_t lo = c ^ loadLe32(data);
        const std::uint32_t hi = loadLe32(data + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++data, --n)
        c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

RecordWriter::~RecordWriter()
{
    close();
}

api::Status
RecordWriter::open(const std::string &path, FsyncPolicy fsync)
{
    close();
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        return ioError("ckpt: open " + path);
    fsync_ = fsync;
    path_ = path;
    return api::Status::okStatus();
}

api::Status
RecordWriter::append(const std::vector<std::uint8_t> &payload)
{
    if (fd_ < 0)
        return api::Status::error(api::ErrorCode::Unavailable,
                                  "ckpt: append on a closed writer");
    header_.clear();
    net::WireWriter w(&header_);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u32(crc32(payload.data(), payload.size()));
    // Header and payload go out as two writes, not one copied frame:
    // a snapshot payload is megabytes. The crash point counts bytes
    // across both, so a torn record looks the same either way.
    auto st = durableWrite(fd_, header_.data(), header_.size(), path_);
    if (!st.ok())
        return st;
    st = durableWrite(fd_, payload.data(), payload.size(), path_);
    if (!st.ok())
        return st;
    if (fsync_ == FsyncPolicy::Always && ::fsync(fd_) != 0)
        return ioError("ckpt: fsync " + path_);
    return api::Status::okStatus();
}

api::Status
RecordWriter::reset()
{
    if (fd_ < 0)
        return api::Status::error(api::ErrorCode::Unavailable,
                                  "ckpt: reset on a closed writer");
    if (::ftruncate(fd_, 0) != 0)
        return ioError("ckpt: truncate " + path_);
    if (fsync_ == FsyncPolicy::Always && ::fsync(fd_) != 0)
        return ioError("ckpt: fsync " + path_);
    return api::Status::okStatus();
}

api::Status
RecordWriter::sync()
{
    if (fd_ >= 0 && ::fsync(fd_) != 0)
        return ioError("ckpt: fsync " + path_);
    return api::Status::okStatus();
}

void
RecordWriter::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

api::Status
readRecords(const std::string &path,
            std::vector<std::vector<std::uint8_t>> *out,
            std::size_t *truncated_bytes)
{
    out->clear();
    if (truncated_bytes)
        *truncated_bytes = 0;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (errno == ENOENT)
            return api::Status::okStatus(); // nothing durable yet
        return ioError("ckpt: open " + path);
    }
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[1 << 16];
    for (;;) {
        const ssize_t r = ::read(fd, buf, sizeof buf);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return ioError("ckpt: read " + path);
        }
        if (r == 0)
            break;
        bytes.insert(bytes.end(), buf, buf + r);
    }
    ::close(fd);

    std::size_t pos = 0;
    while (pos < bytes.size()) {
        net::WireReader r(bytes.data() + pos, bytes.size() - pos);
        std::uint32_t len = 0, crc = 0;
        if (!r.u32(len) || !r.u32(crc) ||
            bytes.size() - pos - 8 < len) {
            // Torn tail: the file ends inside this record. Every
            // complete record before it stands; the tear is dropped.
            if (truncated_bytes)
                *truncated_bytes = bytes.size() - pos;
            return api::Status::okStatus();
        }
        const std::uint8_t *payload = bytes.data() + pos + 8;
        if (crc32(payload, len) != crc)
            return api::Status::error(
                api::ErrorCode::DataLoss,
                "ckpt: checksum mismatch in " + path + " at offset " +
                    std::to_string(pos) +
                    " (complete record, so corruption rather than a "
                    "torn append)");
        out->emplace_back(payload, payload + len);
        pos += 8 + len;
    }
    return api::Status::okStatus();
}

api::Status
publishRecordFile(const std::string &path,
                  const std::vector<std::uint8_t> &payload,
                  FsyncPolicy fsync)
{
    const std::string tmp = path + ".tmp";
    {
        RecordWriter w;
        // The tmp file must start empty even if a previous crash left
        // one behind: unlink first (O_APPEND would concatenate).
        ::unlink(tmp.c_str());
        auto st = w.open(tmp, FsyncPolicy::Never);
        if (!st.ok())
            return st;
        st = w.append(payload);
        if (!st.ok())
            return st;
        st = w.sync(); // the file must be durable before the rename
        if (!st.ok())
            return st;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0)
        return ioError("ckpt: rename " + tmp);
    if (fsync == FsyncPolicy::Always) {
        // The rename itself must be durable: fsync the directory.
        const auto slash = path.find_last_of('/');
        const std::string dir =
            slash == std::string::npos ? "." : path.substr(0, slash);
        const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
        if (dfd >= 0) {
            ::fsync(dfd);
            ::close(dfd);
        }
    }
    return api::Status::okStatus();
}

} // namespace ecov::ckpt
