/**
 * @file
 * The durable record layer's damage taxonomy (src/ckpt/record_io.h):
 * CRC framing round-trips, a torn tail truncates silently (crash
 * artifact), a checksum mismatch on a complete record is DataLoss
 * (corruption), and publishRecordFile replaces atomically. crc32 —
 * carry-less folds or tables, whichever this CPU runs — equals a
 * bit-at-a-time IEEE 802.3 reference at every length and alignment
 * that reaches each path. Only FsyncPolicy::Always starts the sync
 * thread, and a failed fsync on it comes back through wait(). Plus
 * the CrashPoint byte accounting the crash-recovery suite drives.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "ckpt/record_io.h"
#include "fault/crash_point.h"
#include "world_harness.h" // makeStateDir, slurp

namespace ecov::ckpt {
namespace {

void
spit(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

void
flipByte(const std::string &path, std::size_t offset)
{
    std::vector<std::uint8_t> bytes = testutil::slurp(path);
    ASSERT_LT(offset, bytes.size());
    bytes[offset] ^= 0xff;
    spit(path, bytes);
}

std::vector<std::uint8_t>
payloadOf(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = static_cast<std::uint8_t>(seed + i);
    return p;
}

TEST(RecordIo, Crc32KnownAnswer)
{
    // The IEEE 802.3 check value for "123456789".
    const char *s = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(s), 9),
              0xCBF43926u);

    // Reference values from zlib.crc32, spanning the 8-byte blocks and
    // the byte-wise tail.
    EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
    const std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_EQ(crc32(zeros.data(), zeros.size()), 0x190A55ADu);
    const std::vector<std::uint8_t> ramp = payloadOf(256, 0);
    EXPECT_EQ(crc32(ramp.data(), ramp.size()), 0x29058C73u);
    // Bytes 0x01..0xFF: an odd length from an unaligned start.
    EXPECT_EQ(crc32(ramp.data() + 1, ramp.size() - 1), 0xD0161F87u);
    const std::string fox = "The quick brown fox jumps over the lazy dog";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(fox.data()),
                    fox.size()),
              0x414FA339u);
}

/** The CRC-32 register after `p`, one bit at a time: the definition,
 *  with no table or fold shared with crc32(). */
std::uint32_t
crcBits(std::uint32_t c, std::uint8_t p)
{
    c ^= p;
    for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    return c;
}

TEST(RecordIo, Crc32MatchesBitwiseReference)
{
    // xorshift bytes: no period a fold could alias with.
    std::vector<std::uint8_t> bytes(6u << 20);
    std::uint64_t x = 88172645463325252ull;
    for (std::uint8_t &b : bytes) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<std::uint8_t>(x);
    }
    // Every length to 1,024 from every start offset 0-15: under 64
    // bytes, whole and partial 64-byte blocks, and each 0-15 byte tail.
    for (std::size_t off = 0; off < 16; ++off) {
        std::uint32_t c = 0xFFFFFFFFu;
        for (std::size_t n = 0; n <= 1024; ++n) {
            ASSERT_EQ(crc32(bytes.data() + off, n), c ^ 0xFFFFFFFFu)
                << "offset " << off << ", length " << n;
            c = crcBits(c, bytes[off + n]);
        }
    }
    // One buffer the size of a benchmark snapshot.
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::uint8_t b : bytes)
        c = crcBits(c, b);
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), c ^ 0xFFFFFFFFu);
}

TEST(RecordIo, AppendReadRoundTrip)
{
    const std::string dir = testutil::makeStateDir();
    const std::string path = dir + "/wal";
    const auto p1 = payloadOf(5, 1);
    const auto p2 = payloadOf(32, 7);

    RecordWriter w;
    ASSERT_TRUE(w.open(path, FsyncPolicy::Never).ok());
    ASSERT_TRUE(w.append(p1).ok());
    ASSERT_TRUE(w.append(p2).ok());
    w.close();

    std::vector<std::vector<std::uint8_t>> recs;
    std::size_t truncated = 99;
    ASSERT_TRUE(readRecords(path, &recs, &truncated).ok());
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0], p1);
    EXPECT_EQ(recs[1], p2);
    EXPECT_EQ(truncated, 0u);

    // Re-open appends after the existing records.
    RecordWriter w2;
    ASSERT_TRUE(w2.open(path, FsyncPolicy::Never).ok());
    ASSERT_TRUE(w2.append(p1).ok());
    w2.close();
    ASSERT_TRUE(readRecords(path, &recs).ok());
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[2], p1);
}

TEST(RecordIo, MissingFileIsEmpty)
{
    const std::string dir = testutil::makeStateDir();
    std::vector<std::vector<std::uint8_t>> recs;
    std::size_t truncated = 99;
    ASSERT_TRUE(
        readRecords(dir + "/nonexistent", &recs, &truncated).ok());
    EXPECT_TRUE(recs.empty());
    EXPECT_EQ(truncated, 0u);
}

TEST(RecordIo, TornTailTruncates)
{
    const std::string dir = testutil::makeStateDir();
    const std::string path = dir + "/wal";
    const auto p1 = payloadOf(5, 1);  // record: 8 + 5 = 13 bytes
    const auto p2 = payloadOf(32, 7); // record: 8 + 32 = 40 bytes
    const std::size_t end1 = 13;

    RecordWriter w;
    ASSERT_TRUE(w.open(path, FsyncPolicy::Never).ok());
    ASSERT_TRUE(w.append(p1).ok());
    ASSERT_TRUE(w.append(p2).ok());
    w.close();

    // Tear inside the second record's payload: the complete prefix
    // survives, the partial bytes are discarded and counted.
    ASSERT_EQ(::truncate(path.c_str(),
                         static_cast<off_t>(end1 + 8 + 10)),
              0);
    std::vector<std::vector<std::uint8_t>> recs;
    std::size_t truncated = 0;
    ASSERT_TRUE(readRecords(path, &recs, &truncated).ok());
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0], p1);
    EXPECT_EQ(truncated, 18u);

    // Tear inside the second record's *header* (no full length/CRC).
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(end1 + 4)),
              0);
    ASSERT_TRUE(readRecords(path, &recs, &truncated).ok());
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(truncated, 4u);
}

TEST(RecordIo, ChecksumMismatchIsDataLoss)
{
    const std::string dir = testutil::makeStateDir();
    const std::string path = dir + "/wal";
    const auto p1 = payloadOf(5, 1);
    const auto p2 = payloadOf(32, 7);

    RecordWriter w;
    ASSERT_TRUE(w.open(path, FsyncPolicy::Never).ok());
    ASSERT_TRUE(w.append(p1).ok());
    ASSERT_TRUE(w.append(p2).ok());
    w.close();

    // A flipped byte inside a *complete* record is corruption, not a
    // crash artifact: the read must refuse, not truncate.
    flipByte(path, 13 + 8 + 3);
    std::vector<std::vector<std::uint8_t>> recs;
    api::Status st = readRecords(path, &recs);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), api::ErrorCode::DataLoss);
}

/** Threads of this process, as Linux lists them. */
std::size_t
threadCount()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

// Defined before any other test starts a sync thread: a thread that
// pthread_join has returned for can stay listed for a moment, which
// only ever lowers a later count.
TEST(RecordIo, OnlyAlwaysStartsTheSyncThread)
{
    const std::string dir = testutil::makeStateDir();
    const std::size_t before = threadCount();
    {
        RecordWriter w;
        ASSERT_TRUE(w.open(dir + "/never", FsyncPolicy::Never).ok());
        ASSERT_TRUE(w.append(payloadOf(16, 3)).ok());
        EXPECT_LE(threadCount(), before);
    }
    RecordWriter w;
    ASSERT_TRUE(w.open(dir + "/always", FsyncPolicy::Always).ok());
    EXPECT_LE(threadCount(), before); // not before the first append
    ASSERT_TRUE(w.append(payloadOf(16, 3)).ok());
    const std::size_t started = threadCount();
    EXPECT_GT(started, before);
    // One thread, however many appends.
    ASSERT_TRUE(w.append(payloadOf(16, 4)).ok());
    ASSERT_TRUE(w.append(payloadOf(16, 5)).ok());
    EXPECT_TRUE(w.wait().ok());
    EXPECT_EQ(threadCount(), started);
}

TEST(RecordIo, FailedFsyncComesBackThroughWait)
{
    // /dev/null takes writes and refuses fsync (EINVAL). Under Always
    // the append returns once the bytes are written; the fsync's
    // failure is the sync thread's to report, through wait().
    RecordWriter w;
    ASSERT_TRUE(w.open("/dev/null", FsyncPolicy::Always).ok());
    ASSERT_TRUE(w.append(payloadOf(16, 3)).ok());
    api::Status st = w.wait();
    EXPECT_EQ(st.code(), api::ErrorCode::Unavailable);
    EXPECT_NE(st.message().find("fsync /dev/null"), std::string::npos)
        << st.message();
    // Collected once: nothing is pending any more.
    EXPECT_TRUE(w.wait().ok());

    // Not collected by wait(), the failure stops the next append
    // before it writes.
    ASSERT_TRUE(w.append(payloadOf(16, 3)).ok());
    st = w.append(payloadOf(16, 3));
    EXPECT_EQ(st.code(), api::ErrorCode::Unavailable);
    EXPECT_TRUE(w.wait().ok());

    // Never syncs nothing, so there is nothing to fail.
    RecordWriter never;
    ASSERT_TRUE(never.open("/dev/null", FsyncPolicy::Never).ok());
    ASSERT_TRUE(never.append(payloadOf(16, 3)).ok());
    EXPECT_TRUE(never.wait().ok());
}

TEST(RecordIo, ResetEmptiesFile)
{
    const std::string dir = testutil::makeStateDir();
    const std::string path = dir + "/wal";
    RecordWriter w;
    ASSERT_TRUE(w.open(path, FsyncPolicy::Never).ok());
    ASSERT_TRUE(w.append(payloadOf(16, 3)).ok());
    ASSERT_TRUE(w.reset().ok());
    ASSERT_TRUE(w.append(payloadOf(4, 9)).ok());
    w.close();

    std::vector<std::vector<std::uint8_t>> recs;
    ASSERT_TRUE(readRecords(path, &recs).ok());
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0], payloadOf(4, 9));
}

TEST(RecordIo, PublishReplacesAtomically)
{
    const std::string dir = testutil::makeStateDir();
    const std::string path = dir + "/snapshot";
    const auto a = payloadOf(24, 2);
    const auto b = payloadOf(48, 5);

    ASSERT_TRUE(publishRecordFile(path, a, FsyncPolicy::Never).ok());
    std::vector<std::vector<std::uint8_t>> recs;
    ASSERT_TRUE(readRecords(path, &recs).ok());
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0], a);

    // A stale torn tmp from a crashed previous publish must not get
    // in the way of the next one.
    spit(path + ".tmp", payloadOf(3, 11));
    ASSERT_TRUE(publishRecordFile(path, b, FsyncPolicy::Never).ok());
    ASSERT_TRUE(readRecords(path, &recs).ok());
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0], b);
    EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
}

TEST(RecordIo, CrashPointAccounting)
{
    // admit() hands back whole writes until the armed offset, then
    // the partial byte count below it. (The die() half is exercised
    // by the fork-based crash-recovery suite.)
    fault::CrashPoint::arm(10);
    EXPECT_TRUE(fault::CrashPoint::armed());
    EXPECT_EQ(fault::CrashPoint::written(), 0);
    EXPECT_EQ(fault::CrashPoint::admit(6), 6);
    EXPECT_EQ(fault::CrashPoint::admit(6), 4); // crosses at byte 10
    EXPECT_EQ(fault::CrashPoint::written(), 10);
    fault::CrashPoint::disarm();
    EXPECT_FALSE(fault::CrashPoint::armed());
    EXPECT_EQ(fault::CrashPoint::admit(6), 6); // disarmed: unbounded
}

} // namespace
} // namespace ecov::ckpt
