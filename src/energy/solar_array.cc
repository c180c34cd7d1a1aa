#include "energy/solar_array.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/logging.h"
#include "util/rng.h"

namespace ecov::energy {

SolarArray::SolarArray(std::vector<Point> points, TimeS period_s)
    : points_(std::move(points)), period_s_(period_s)
{
    if (points_.empty())
        fatal("SolarArray: empty trace");
    if (period_s_ <= 0)
        fatal("SolarArray: period must be positive");
    for (std::size_t i = 0; i < points_.size(); ++i) {
        if (points_[i].power_w < 0.0)
            fatal("SolarArray: negative power in trace");
        if (i > 0 && points_[i].time_s <= points_[i - 1].time_s)
            fatal("SolarArray: times must be strictly increasing");
    }
    if (points_.back().time_s >= period_s_)
        fatal("SolarArray: trace extends past wrap period");
}

double
SolarArray::powerAt(TimeS t) const
{
    t %= period_s_;
    if (t < 0)
        t += period_s_;
    auto it = std::upper_bound(points_.begin(), points_.end(), t,
                               [](TimeS v, const Point &p) {
                                   return v < p.time_s;
                               });
    if (it == points_.begin())
        return points_.front().power_w * scale_;
    return (it - 1)->power_w * scale_;
}

void
SolarArray::setScale(double scale)
{
    if (scale < 0.0)
        fatal("SolarArray: negative scale");
    scale_ = scale;
}

SolarArray
makeSolarTrace(const SolarTraceConfig &config, std::uint64_t seed)
{
    if (config.peak_w < 0.0)
        fatal("makeSolarTrace: negative peak");
    if (config.sunset_hour <= config.sunrise_hour)
        fatal("makeSolarTrace: sunset must follow sunrise");
    if (config.days <= 0)
        fatal("makeSolarTrace: days must be positive");

    Rng rng(seed);
    std::vector<SolarArray::Point> pts;
    const TimeS day = 24 * 3600;
    const TimeS total = static_cast<TimeS>(config.days) * day;
    pts.reserve(static_cast<std::size_t>(total /
                                         config.sample_interval_s) + 1);

    // Cloud attenuation: first-order autoregressive process in [0, 1].
    double cloud = 0.0;
    const double ar = 0.97;
    for (TimeS t = 0; t < total; t += config.sample_interval_s) {
        double hour = static_cast<double>(t % day) / 3600.0;
        double power = 0.0;
        if (hour > config.sunrise_hour && hour < config.sunset_hour) {
            double span = config.sunset_hour - config.sunrise_hour;
            double x = (hour - config.sunrise_hour) / span; // (0,1)
            // Clear-sky bell (half sine).
            power = config.peak_w * std::sin(std::numbers::pi * x);
            // Autocorrelated cloud attenuation.
            cloud = ar * cloud +
                    (1.0 - ar) * rng.uniform(0.0, config.cloudiness * 2.0);
            double atten = clamp(cloud, 0.0, 0.95);
            power *= (1.0 - atten);
        } else {
            cloud = 0.0;
        }
        pts.push_back({t, std::max(0.0, power)});
    }
    return SolarArray(std::move(pts), total);
}

} // namespace ecov::energy
