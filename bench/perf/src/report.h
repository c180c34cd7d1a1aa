/**
 * @file
 * What one ecoperf run measures, and how it is printed: one
 * `name value unit` line per metric, then the closing JSON line
 * (README.md, "Output").
 */

#ifndef ECOPERF_REPORT_H
#define ECOPERF_REPORT_H

#include <sys/resource.h>

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace ecoperf {

/** One run's settings, from the command line. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 7;
    /** Matches run_seconds in BENCHMARK.json. */
    double seconds = 30.0;
    bool trace = false;
    /** Raw span log (CSV) written at the end of a traced run. */
    std::string trace_file;
    /** About 1% of a full run: a 0.3 s window, an early check tick,
     *  one recovery copy. */
    bool smoke = false;
};

/** A workload's measurements and check outcomes. */
struct RunResult
{
    /** Tenant read / mutation latencies over the measured window, ns. */
    Samples read_ns;
    Samples mut_ns;
    /**
     * A traced run's latencies over its untraced first half, which
     * Window moves here: the per-layer latency metrics. An untraced
     * run reports no latency.
     */
    Samples untraced_read_ns;
    Samples untraced_mut_ns;
    /** Over the measured window (the traced half in a traced run),
     *  without the reference measurements. */
    double wall_s = 0.0;
    /** At reference host speed (host_ref.h). */
    double ticks_per_s = 0.0;
    double req_per_s = 0.0;
    double cpu_us_per_tick = 0.0;
    /** The same, as measured. */
    double wall_ticks_per_s = 0.0;
    double wall_req_per_s = 0.0;
    double wall_cpu_us_per_tick = 0.0;
    /** Median reference measurement over the window. */
    double ref_ns = 0.0;
    /** Resident memory at the check tick, without the reference's
     *  buffer. */
    double rss_mb = 0.0;
    /** One entry per set-up, at reference speed; setup_s reports
     *  their median. */
    std::vector<double> setup_s;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Domain digest at `digest_tick` (0 tick = none). */
    std::uint64_t digest = 0;
    std::int64_t digest_tick = 0;

    /** Record a check; a false one fails the run. */
    void
    expect(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/**
 * The measured loop's clock. The window stays open for the run's
 * seconds of wall time, and longer while the workload still needs
 * ticks (its check tick, a snapshot boundary). Once a slice of 25 ms
 * has passed, the next unit ends it with one reference measurement,
 * which scales that slice's CPU time (host_ref.h). When the window
 * closes it stores the whole window's tick rate, request rate and CPU
 * per tick in the RunResult, at reference speed and as measured.
 *
 * Traced, the first half runs untraced and the second traced; busy
 * time per unit in the two halves gives the tracing overhead, and the
 * stored numbers cover the traced half.
 */
class Window
{
  public:
    Window(const RunOptions &opt, RunResult *r);

    /** True while the loop should run another unit (a tick, or a
     *  round of requests). */
    bool open(bool must_continue);

    /** One unit done; `busy_ns` < 0 means "all time since the last". */
    void unitDone(std::int64_t busy_ns = -1);

    /** Units in the measured part (the traced half when tracing). */
    std::int64_t units() const { return units_; }

    /** Traced busy per unit ÷ untraced busy per unit − 1 (traced). */
    double overheadFrac() const;

  private:
    /** Start measuring here (window start, or the traced half). */
    void restart(std::int64_t now_ns);

    /** End the slice at `now_ns` with a reference measurement;
     *  returns the time it ended, where the next slice starts. */
    std::int64_t closeSlice(std::int64_t now_ns);

    RunResult *r_;
    double seconds_;
    bool trace_;
    bool traced_half_ = false;
    std::int64_t start_ns_;
    std::uint64_t measure_start_attempted_ = 0;
    std::int64_t slice_start_ns_ = 0;
    std::int64_t slice_start_cpu_ns_ = 0;
    std::int64_t wall_ns_ = 0;
    std::int64_t cpu_ns_ = 0;
    double scaled_wall_ns_ = 0.0;
    double scaled_cpu_ns_ = 0.0;
    std::vector<double> refs_ns_;
    std::int64_t last_ns_ = 0;
    std::int64_t units_ = 0;
    std::int64_t busy_ns_ = 0;
    std::int64_t untraced_units_ = 0;
    std::int64_t untraced_busy_ns_ = 0;
};

/** User + system CPU seconds in a resource usage record. */
double cpuSeconds(const rusage &ru);

/**
 * Print the run's metrics and its JSON line (end-to-end metrics
 * untraced, per-layer metrics traced), checking the digest against
 * digests.json. Returns the process exit code.
 */
int report(const RunOptions &opt, RunResult &r);

} // namespace ecoperf

#endif // ECOPERF_REPORT_H
