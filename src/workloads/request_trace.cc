#include "workloads/request_trace.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/logging.h"
#include "util/rng.h"

namespace ecov::wl {

RequestTrace::RequestTrace(std::vector<Point> points, TimeS period_s)
    : points_(std::move(points)), period_s_(period_s)
{
    if (points_.empty())
        fatal("RequestTrace: empty trace");
    if (period_s_ <= 0)
        fatal("RequestTrace: period must be positive");
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (points_[i].time_s <= points_[i - 1].time_s)
            fatal("RequestTrace: times must be strictly increasing");
    }
    if (points_.back().time_s >= period_s_)
        fatal("RequestTrace: trace extends past wrap period");
}

double
RequestTrace::rateAt(TimeS t) const
{
    t %= period_s_;
    if (t < 0)
        t += period_s_;
    auto it = std::upper_bound(points_.begin(), points_.end(), t,
                               [](TimeS v, const Point &p) {
                                   return v < p.time_s;
                               });
    if (it == points_.begin())
        return points_.front().rps;
    return (it - 1)->rps;
}

RequestTrace
makeRequestTrace(const RequestTraceConfig &config, std::uint64_t seed)
{
    if (config.mean_rps <= 0.0)
        fatal("makeRequestTrace: mean rate must be positive");
    if (config.days <= 0)
        fatal("makeRequestTrace: days must be positive");

    Rng rng(seed);
    const TimeS day = 24 * 3600;
    const TimeS total = static_cast<TimeS>(config.days) * day;
    std::vector<RequestTrace::Point> pts;
    pts.reserve(static_cast<std::size_t>(total /
                                         config.sample_interval_s) + 1);
    for (TimeS t = 0; t < total; t += config.sample_interval_s) {
        double hour = static_cast<double>(t % day) / 3600.0;
        double frac = static_cast<double>(t) / static_cast<double>(total);
        double v = config.mean_rps * (1.0 + config.ramp_fraction * frac);
        v += config.diurnal_amp *
             std::cos(2.0 * std::numbers::pi *
                      (hour - config.peak_hour) / 24.0);
        v += rng.gaussian(0.0, config.noise_stddev);
        if (rng.bernoulli(config.spike_prob))
            v *= config.spike_mult;
        pts.push_back({t, std::max(1.0, v)});
    }
    return RequestTrace(std::move(pts), total);
}

RequestTraceConfig
webApp1Workload()
{
    RequestTraceConfig cfg;
    cfg.mean_rps = 110.0;
    cfg.diurnal_amp = 60.0;
    cfg.peak_hour = 14.0;
    cfg.noise_stddev = 7.0;
    cfg.spike_prob = 0.008;
    cfg.spike_mult = 1.6;
    cfg.days = 2;
    // Ramps upward so the final day's peak coincides with the evening
    // carbon ramp — the high-carbon/high-load stress the paper plots.
    cfg.ramp_fraction = 0.45;
    return cfg;
}

RequestTraceConfig
webApp2Workload()
{
    RequestTraceConfig cfg;
    cfg.mean_rps = 90.0;
    cfg.diurnal_amp = 55.0;
    cfg.peak_hour = 19.0; // evening peak: overlaps the carbon ramp
    cfg.noise_stddev = 10.0;
    cfg.spike_prob = 0.015;
    cfg.spike_mult = 1.7;
    cfg.days = 2;
    cfg.ramp_fraction = 0.30;
    return cfg;
}

} // namespace ecov::wl
