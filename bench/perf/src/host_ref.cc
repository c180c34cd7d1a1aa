#include "host_ref.h"

#include <time.h>

#include <cmath>

#include "trace.h"

namespace ecoperf {

namespace {

/** 1 MiB: half this host's per-core L2. */
constexpr std::size_t kWords = std::size_t{1} << 17;

/** Multiplies in the arithmetic loop: about 70 us. */
constexpr int kMultiplies = 50000;

volatile std::uint64_t g_sink;

} // namespace

std::int64_t
cpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

HostRef::HostRef() : buf_(kWords, 1) {}

double
HostRef::measure()
{
    const std::int64_t t0 = nowNs();
    std::uint64_t x = 1;
    for (int i = 0; i < kMultiplies; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::int64_t t1 = nowNs();

    // The first read brings the buffer back into L2; the second is
    // timed.
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < buf_.size(); i += 2)
        sum += buf_[i];
    const std::int64_t t2 = nowNs();
    for (std::size_t i = 0; i < buf_.size(); i += 2)
        sum += buf_[i];
    const std::int64_t t3 = nowNs();
    g_sink = x + sum;
    return std::sqrt(static_cast<double>(t1 - t0) *
                     static_cast<double>(t3 - t2));
}

double
HostRef::megabytes() const
{
    return static_cast<double>(buf_.size() * sizeof(std::uint64_t)) /
           (1024.0 * 1024.0);
}

HostRef &
hostRef()
{
    static HostRef ref;
    return ref;
}

} // namespace ecoperf
