#include "ckpt/record_io.h"

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "fault/crash_point.h"
#include "net/wire.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ECOV_CRC32_CLMUL 1
#include <immintrin.h>
#endif

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

/** Slicing-by-8 over any length, on the pre-inverted register. */
std::uint32_t
crc32Tables(std::uint32_t c, const std::uint8_t *data, std::size_t n)
{
    const CrcTables &t = crcTables();
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
    return c;
}

#ifdef ECOV_CRC32_CLMUL
/** Whether this CPU has PCLMULQDQ and SSE4.1; asked once. */
bool
haveClmul()
{
    static const bool yes = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return yes;
}

/** 16 bytes from anywhere. */
__attribute__((target("pclmul,sse4.1"))) __m128i
load128(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/**
 * `lane` carried forward over the distance whose two constants `k`
 * holds (its low half times one, its high half times the other), plus
 * the `next` 16 bytes that distance ends at.
 */
__attribute__((target("pclmul,sse4.1"))) __m128i
fold128(__m128i lane, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                       _mm_clmulepi64_si128(lane, k, 0x11)),
                         next);
}

/**
 * The CRC-32 register after `n` more bytes, `n` a multiple of 16 and
 * at least 64, by folding with carry-less multiplies (Gopal et al.,
 * "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
 * Instruction", Intel, 2009). Four 128-bit lanes each fold forward by
 * 64 bytes a step, the lanes fold into one, each remaining 16 bytes
 * fold into it, and a Barrett reduction takes the last 64 bits of
 * remainder to 32. The constants are x^k mod P for the folding
 * distances, then P and floor(x^64 / P), all bit-reflected as the
 * register is.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
crc32Clmul(std::uint32_t c, const std::uint8_t *data, std::size_t n)
{
    // x^(512+32) and x^(512-32) mod P: a lane forward by 64 bytes.
    const __m128i k64 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    // x^(128+32) and x^(128-32) mod P: forward by 16 bytes.
    const __m128i k16 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    // x^64 mod P: 64 bits of remainder into 32.
    const __m128i k8 = _mm_set_epi64x(0, 0x163cd6124);
    // floor(x^64 / P) and P, for the Barrett reduction.
    const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x0 = _mm_xor_si128(load128(data),
                               _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x1 = load128(data + 16);
    __m128i x2 = load128(data + 32);
    __m128i x3 = load128(data + 48);
    for (data += 64, n -= 64; n >= 64; data += 64, n -= 64) {
        x0 = fold128(x0, k64, load128(data));
        x1 = fold128(x1, k64, load128(data + 16));
        x2 = fold128(x2, k64, load128(data + 32));
        x3 = fold128(x3, k64, load128(data + 48));
    }
    x0 = fold128(x0, k16, x1);
    x0 = fold128(x0, k16, x2);
    x0 = fold128(x0, k16, x3);
    for (; n >= 16; data += 16, n -= 16)
        x0 = fold128(x0, k16, load128(data));

    // 128 bits to 64, then to 32 + 32 for the reduction.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k16, 0x10));
    x0 = _mm_xor_si128(
        _mm_srli_si128(x0, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k8, 0x00));
    __m128i t = _mm_and_si128(x0, low32);
    t = _mm_clmulepi64_si128(t, barrett, 0x10);
    t = _mm_and_si128(t, low32);
    t = _mm_clmulepi64_si128(t, barrett, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}
#endif

api::Status
ioError(const std::string &what, int err = errno)
{
    return api::Status::error(api::ErrorCode::Unavailable,
                              what + ": " + std::strerror(err));
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
    std::uint32_t c = 0xFFFFFFFFu;
#ifdef ECOV_CRC32_CLMUL
    if (n >= 64 && haveClmul()) {
        const std::size_t folded = n & ~std::size_t{15};
        c = crc32Clmul(c, data, folded);
        data += folded;
        n -= folded;
    }
#endif
    return crc32Tables(c, data, n) ^ 0xFFFFFFFFu;
}

/**
 * One thread that runs one fsync at a time: start() hands it a file
 * descriptor, finish() waits for the fsync and returns its errno (0 on
 * success). The owner never starts a second before finishing the first.
 */
class RecordWriter::SyncThread
{
  public:
    SyncThread()
    {
        // The thread inherits a mask that blocks every signal, so a
        // process-directed signal (SIGTERM, SIGINT) always goes to a
        // thread that can act on it: ecovisord's ppoll wakes.
        sigset_t all, old;
        sigfillset(&all);
        pthread_sigmask(SIG_BLOCK, &all, &old);
        thread_ = std::thread([this] { run(); });
        pthread_sigmask(SIG_SETMASK, &old, nullptr);
    }

    ~SyncThread()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        work_.notify_one();
        thread_.join();
    }

    SyncThread(const SyncThread &) = delete;
    SyncThread &operator=(const SyncThread &) = delete;

    void
    start(int fd)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            fd_ = fd;
        }
        work_.notify_one();
    }

    int
    finish()
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_.wait(lock, [this] { return fd_ < 0; });
        return std::exchange(err_, 0);
    }

  private:
    void
    run()
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            work_.wait(lock, [this] { return stop_ || fd_ >= 0; });
            if (fd_ < 0)
                return;
            const int fd = fd_;
            lock.unlock();
            const int err = ::fsync(fd) == 0 ? 0 : errno;
            lock.lock();
            err_ = err;
            fd_ = -1;
            done_.notify_one();
        }
    }

    std::mutex mu_; ///< guards fd_, err_ and stop_
    std::condition_variable work_;
    std::condition_variable done_;
    int fd_ = -1; ///< the file being synced; -1 when none is
    int err_ = 0; ///< errno of the last fsync, until finish() takes it
    bool stop_ = false;
    std::thread thread_; ///< last: run() uses every member above
};

RecordWriter::RecordWriter() = default;

RecordWriter::~RecordWriter()
{
    close();
}

api::Status
RecordWriter::wait()
{
    if (!sync_thread_)
        return api::Status::okStatus();
    const int err = sync_thread_->finish();
    if (err != 0)
        return ioError("ckpt: fsync " + path_, err);
    return api::Status::okStatus();
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
    auto st = wait();
    if (!st.ok())
        return st;
    // The header is the payload's length and then its CRC-32, each a
    // little-endian u32 as WireReader reads them back.
    const std::uint32_t words[2] = {
        static_cast<std::uint32_t>(payload.size()),
        crc32(payload.data(), payload.size())};
    std::uint8_t header[sizeof words];
    for (std::size_t i = 0; i < sizeof header; ++i)
        header[i] = static_cast<std::uint8_t>(words[i / 4] >> (8 * (i % 4)));
    // Header and payload go out as two writes, not one copied frame:
    // a snapshot payload is megabytes. The crash point counts bytes
    // across both, so a torn record looks the same either way.
    st = durableWrite(fd_, header, sizeof header, path_);
    if (!st.ok())
        return st;
    st = durableWrite(fd_, payload.data(), payload.size(), path_);
    if (!st.ok())
        return st;
    if (fsync_ == FsyncPolicy::Always) {
        if (!sync_thread_)
            sync_thread_ = std::make_unique<SyncThread>();
        sync_thread_->start(fd_);
    }
    return api::Status::okStatus();
}

api::Status
RecordWriter::reset()
{
    if (fd_ < 0)
        return api::Status::error(api::ErrorCode::Unavailable,
                                  "ckpt: reset on a closed writer");
    auto st = wait();
    if (!st.ok())
        return st;
    if (::ftruncate(fd_, 0) != 0)
        return ioError("ckpt: truncate " + path_);
    if (fsync_ == FsyncPolicy::Always && ::fsync(fd_) != 0)
        return ioError("ckpt: fsync " + path_);
    return api::Status::okStatus();
}

api::Status
RecordWriter::sync()
{
    auto st = wait();
    if (!st.ok())
        return st;
    if (fd_ >= 0 && ::fsync(fd_) != 0)
        return ioError("ckpt: fsync " + path_);
    return api::Status::okStatus();
}

void
RecordWriter::close()
{
    // A failed fsync of the last append has no caller left to tell;
    // the file is closed either way.
    (void)wait();
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
        // Under Always the file must be durable before the rename.
        // Under Never the rename is still atomic against process
        // death: the page cache holds the bytes either way.
        if (fsync == FsyncPolicy::Always)
            st = w.sync();
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
