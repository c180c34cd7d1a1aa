#include "report.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "host_ref.h"
#include "util/json.h"
#include "util/stats.h"

namespace ecoperf {
namespace {

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::uint64_t samples; ///< 0 when not a sample statistic
};

std::vector<Metric>
endToEnd(const RunResult &r)
{
    return {
        {"ticks_per_sec", r.ticks_per_s, "ticks/s", 0},
        {"req_per_sec", r.req_per_s, "req/s", 0},
        {"cpu_us_per_tick", r.cpu_us_per_tick, "us", 0},
        {"rss_mb", r.rss_mb, "MB", 0},
        {"setup_s", ecov::percentileOf(r.setup_s, 50), "s",
         r.setup_s.size()},
    };
}

std::vector<Metric>
perLayer(const RunResult &r)
{
    std::vector<Metric> out;
    const double wall_ns = r.wall_s * 1e9;
    for (int i = 0; i < static_cast<int>(Span::kCount); ++i) {
        const Span s = static_cast<Span>(i);
        const Samples &sp = tracer().span(s);
        const std::string stem = spanName(s);
        out.push_back({stem + ".calls",
                       static_cast<double>(sp.count()), "count", 0});
        out.push_back({stem + ".p50_ns", sp.percentile(50), "ns",
                       sp.count()});
        out.push_back({stem + ".p99_ns", sp.percentile(99), "ns",
                       sp.count()});
        out.push_back({stem + ".busy_frac", sp.sum() / wall_ns,
                       "fraction", 0});
    }
    for (int i = 0; i < static_cast<int>(Count::kCount); ++i) {
        const Count c = static_cast<Count>(i);
        out.push_back({countName(c), tracer().get(c), countUnit(c), 0});
    }
    // Host contention moves these further, run to run, than any bound
    // an end-to-end metric may have (README.md, "Calibration"). They
    // are reported here, from the run's untraced half.
    const Samples &reads = r.untraced_read_ns, &muts = r.untraced_mut_ns;
    out.push_back({"read_rtt_p50_us", reads.percentile(50) * 1e-3, "us",
                   reads.count()});
    out.push_back({"read_rtt_p99_us", reads.percentile(99) * 1e-3, "us",
                   reads.count()});
    out.push_back({"mut_rtt_p50_us", muts.percentile(50) * 1e-3, "us",
                   muts.count()});
    out.push_back({"mut_rtt_p99_us", muts.percentile(99) * 1e-3, "us",
                   muts.count()});
    // The traced half's rates as measured, and the reference
    // measurement that scales the end-to-end ones.
    out.push_back({"wall_ticks_per_sec", r.wall_ticks_per_s, "ticks/s", 0});
    out.push_back({"wall_req_per_sec", r.wall_req_per_s, "req/s", 0});
    out.push_back({"wall_cpu_us_per_tick", r.wall_cpu_us_per_tick, "us", 0});
    out.push_back({"host.ref_us", r.ref_ns * 1e-3, "us", 0});
    return out;
}

/**
 * The reference digest for this workload, seed and tick from
 * digests.json ({workload: {seed: {tick: "hex"}}}): "" when none is
 * listed, nullopt when the file cannot be read.
 */
std::optional<std::string>
referenceDigest(const RunOptions &opt, std::int64_t tick)
{
    std::ifstream in(ECOPERF_DIGESTS);
    std::stringstream text;
    text << in.rdbuf();
    const auto doc = ecov::JsonValue::parse(text.str());
    if (!doc || !doc->isObject())
        return std::nullopt;
    const ecov::JsonValue *wl = doc->find(opt.workload);
    const ecov::JsonValue *seed =
        wl ? wl->find(std::to_string(opt.seed)) : nullptr;
    return seed ? seed->stringOr(std::to_string(tick), "") : "";
}

} // namespace

/** Wall time between reference measurements. */
constexpr std::int64_t kSliceNs = 25'000'000;

Window::Window(const RunOptions &opt, RunResult *r)
    : r_(r), seconds_(opt.seconds), trace_(opt.trace), start_ns_(nowNs())
{
    tracer().setOn(false);
    restart(start_ns_);
}

void
Window::restart(std::int64_t now_ns)
{
    measure_start_attempted_ = r_->attempted;
    slice_start_ns_ = now_ns;
    slice_start_cpu_ns_ = cpuNs();
    wall_ns_ = 0;
    cpu_ns_ = 0;
    scaled_wall_ns_ = 0.0;
    scaled_cpu_ns_ = 0.0;
    refs_ns_.clear();
    last_ns_ = now_ns;
    units_ = 0;
    busy_ns_ = 0;
    r_->read_ns.clear();
    r_->mut_ns.clear();
}

std::int64_t
Window::closeSlice(std::int64_t now_ns)
{
    const std::int64_t wall = now_ns - slice_start_ns_;
    const std::int64_t cpu = cpuNs() - slice_start_cpu_ns_;
    const double ref = hostRef().measure();
    wall_ns_ += wall;
    cpu_ns_ += cpu;
    scaled_wall_ns_ += HostRef::scaledWallNs(wall, cpu, ref);
    scaled_cpu_ns_ += HostRef::scaledCpuNs(static_cast<double>(cpu), ref);
    refs_ns_.push_back(ref);
    slice_start_ns_ = nowNs();
    slice_start_cpu_ns_ = cpuNs();
    return slice_start_ns_;
}

bool
Window::open(bool must_continue)
{
    const std::int64_t now = nowNs();
    const double elapsed_s = static_cast<double>(now - start_ns_) * 1e-9;
    if (trace_ && !traced_half_ && elapsed_s >= seconds_ / 2) {
        untraced_units_ = units_;
        untraced_busy_ns_ = busy_ns_;
        std::swap(r_->untraced_read_ns, r_->read_ns);
        std::swap(r_->untraced_mut_ns, r_->mut_ns);
        restart(now);
        traced_half_ = true;
        tracer().setOn(true);
    }
    if (elapsed_s < seconds_ || must_continue)
        return true;
    tracer().setOn(false);
    closeSlice(now);
    r_->wall_s = static_cast<double>(wall_ns_) * 1e-9;
    if (units_ > 0 && wall_ns_ > 0) {
        const double units = static_cast<double>(units_);
        const double requests =
            static_cast<double>(r_->attempted - measure_start_attempted_);
        const double scaled_s = scaled_wall_ns_ * 1e-9;
        r_->ticks_per_s = units / scaled_s;
        r_->req_per_s = requests / scaled_s;
        r_->cpu_us_per_tick = scaled_cpu_ns_ * 1e-3 / units;
        r_->wall_ticks_per_s = units / r_->wall_s;
        r_->wall_req_per_s = requests / r_->wall_s;
        r_->wall_cpu_us_per_tick = static_cast<double>(cpu_ns_) * 1e-3 / units;
        r_->ref_ns = ecov::percentileOf(refs_ns_, 50);
    }
    return false;
}

void
Window::unitDone(std::int64_t busy_ns)
{
    std::int64_t now = nowNs();
    busy_ns_ += busy_ns >= 0 ? busy_ns : now - last_ns_;
    ++units_;
    if (now - slice_start_ns_ >= kSliceNs)
        now = closeSlice(now);
    last_ns_ = now;
}

double
Window::overheadFrac() const
{
    if (units_ == 0 || untraced_units_ == 0 || untraced_busy_ns_ == 0)
        return 0.0;
    const double traced = static_cast<double>(busy_ns_) /
                          static_cast<double>(units_);
    const double untraced = static_cast<double>(untraced_busy_ns_) /
                            static_cast<double>(untraced_units_);
    return traced / untraced - 1.0;
}

double
cpuSeconds(const rusage &ru)
{
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

int
report(const RunOptions &opt, RunResult &r)
{
    if (r.digest_tick > 0) {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016" PRIx64, r.digest);
        const std::optional<std::string> ref =
            referenceDigest(opt, r.digest_tick);
        std::printf("digest %s tick=%lld seed=%llu %s\n", hex,
                    static_cast<long long>(r.digest_tick),
                    static_cast<unsigned long long>(opt.seed),
                    !ref || ref->empty() ? "(no reference)"
                    : *ref == hex        ? "(matches digests.json)"
                                         : "(DIFFERS from digests.json)");
        r.expect(ref.has_value(), "cannot read " ECOPERF_DIGESTS);
        r.expect(!ref || ref->empty() || *ref == hex,
                 "domain digest differs from digests.json");
    }
    r.expect(r.failed == 0, std::to_string(r.failed) + " of " +
                                std::to_string(r.attempted) +
                                " requests failed");
    r.expect(r.attempted > 0, "no requests attempted");

    const std::vector<Metric> metrics =
        opt.trace ? perLayer(r) : endToEnd(r);
    for (const Metric &m : metrics) {
        if (!opt.trace)
            r.expect(std::isfinite(m.value) && m.value > 0.0,
                     m.name + " is not a positive number");
        if (m.samples > 0)
            std::printf("%s %.6g %s n=%llu\n", m.name.c_str(), m.value,
                        m.unit.c_str(),
                        static_cast<unsigned long long>(m.samples));
        else
            std::printf("%s %.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }
    if (!opt.trace_file.empty())
        r.expect(tracer().writeLog(opt.trace_file),
                 "cannot write " + opt.trace_file);
    for (const std::string &f : r.failures)
        std::printf("FAIL: %s\n", f.c_str());

    const bool correct = r.failures.empty();
    ecov::JsonWriter w(0);
    w.beginObject();
    w.key("correct");
    w.value(correct);
    w.key("attempted");
    w.value(static_cast<std::uint64_t>(r.attempted));
    w.key("failed");
    w.value(static_cast<std::uint64_t>(r.failed));
    w.key("metrics");
    w.beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name);
        w.beginObject();
        w.key("value");
        w.value(m.value);
        w.key("unit");
        w.value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace ecoperf
