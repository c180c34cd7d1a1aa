#include "geo/geo_coordinator.h"

#include "util/logging.h"

namespace ecov::geo {

GeoCoordinator::GeoCoordinator(std::vector<Site> sites)
    : sites_(std::move(sites))
{
    if (sites_.empty())
        fatal("GeoCoordinator: at least one site required");
    for (auto &s : sites_) {
        if (!s.eco)
            fatal("GeoCoordinator: null ecovisor for site " + s.name);
        // Resolve each site's app name once; every cross-site query
        // below is handle-addressed.
        auto resolved = s.eco->findApp(s.app);
        if (!resolved.ok())
            fatal("GeoCoordinator: app '" + s.app +
                  "' not registered at site " + s.name);
        s.handle = resolved.value();
    }
}

const Site &
GeoCoordinator::site(int idx) const
{
    if (idx < 0 || idx >= siteCount())
        fatal("GeoCoordinator: site index out of range");
    return sites_[static_cast<std::size_t>(idx)];
}

double
GeoCoordinator::carbonAt(int idx) const
{
    return site(idx).eco->getGridCarbon();
}

int
GeoCoordinator::lowestCarbonSite() const
{
    int best = 0;
    for (int i = 1; i < siteCount(); ++i) {
        if (carbonAt(i) < carbonAt(best))
            best = i;
    }
    return best;
}

double
GeoCoordinator::totalCarbonG() const
{
    double total = 0.0;
    for (const auto &s : sites_)
        total += s.eco->ves(s.handle)->totalCarbonG();
    return total;
}

} // namespace ecov::geo
