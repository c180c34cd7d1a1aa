/**
 * @file
 * The host-speed reference that ecoperf's own CPU time is scaled by.
 *
 * The host shares its cores' caches and clock with other machines,
 * and how fast it runs the same code drifts by a third within a minute
 * (README.md, "Host speed"). A run therefore interleaves short
 * measurements of a fixed reference with its work, and reports its CPU
 * time as it would have been on a host where one measurement takes
 * kNominalNs. Time spent waiting (on fsync, on a sleep, on another
 * process) is not host speed and is reported as measured.
 */

#ifndef ECOPERF_HOST_REF_H
#define ECOPERF_HOST_REF_H

#include <cstdint>
#include <vector>

namespace ecoperf {

/** CPU time of this process so far, ns. */
std::int64_t cpuNs();

class HostRef
{
  public:
    /** The measurement every CPU time is scaled to: about this host's
     *  typical value. */
    static constexpr double kNominalNs = 50e3;

    HostRef();
    HostRef(const HostRef &) = delete;
    HostRef &operator=(const HostRef &) = delete;

    /**
     * One measurement, ns: the geometric mean of two timed loops, a
     * chain of multiplies (the core's clock) and a read of a buffer
     * held in this core's L2 (what the core's other hyperthread and
     * the clock leave of it).
     */
    double measure();

    /** The buffer's size, MB; resident for the whole run. */
    double megabytes() const;

    /** CPU time `cpu_ns` at reference speed, given a measurement
     *  taken next to it. */
    static double
    scaledCpuNs(double cpu_ns, double ref_ns)
    {
        return cpu_ns * kNominalNs / ref_ns;
    }

    /** An interval of `wall_ns` holding `cpu_ns` of CPU time, at
     *  reference speed: the CPU part scaled, the rest as measured. */
    static double
    scaledWallNs(std::int64_t wall_ns, std::int64_t cpu_ns, double ref_ns)
    {
        const std::int64_t waited = wall_ns > cpu_ns ? wall_ns - cpu_ns : 0;
        return static_cast<double>(waited) +
               scaledCpuNs(static_cast<double>(cpu_ns), ref_ns);
    }

  private:
    std::vector<std::uint64_t> buf_;
};

/** The process's reference, allocated and touched on first use. */
HostRef &hostRef();

} // namespace ecoperf

#endif // ECOPERF_HOST_REF_H
