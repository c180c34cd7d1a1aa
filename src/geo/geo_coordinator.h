/**
 * @file
 * Geo-distributed ecovisor coordination.
 *
 * Section 3.2 observes that distributed applications controlling
 * virtual energy systems at multiple sites can implement
 * geo-distributed policies that shift workload to the site(s) with
 * the lowest carbon intensity or the most renewable availability; the
 * conclusion lists inter-cluster coordination as future work. This
 * module provides that coordination layer: a registry of named sites
 * (each an independent ecovisor over its own cluster and energy
 * system) with comparative queries, built — like everything in the
 * library layer — purely on the narrow per-site API.
 */

#ifndef ECOV_GEO_GEO_COORDINATOR_H
#define ECOV_GEO_GEO_COORDINATOR_H

#include <string>
#include <vector>

#include "core/ecovisor.h"

namespace ecov::geo {

/** One participating site. */
struct Site
{
    std::string name;         ///< site label ("ontario", "california")
    core::Ecovisor *eco;      ///< borrowed; must outlive the coordinator
    std::string app;          ///< the application's name at that site
    /** The app's handle at that site; resolved by the coordinator
     *  constructor — callers may leave it default-initialized. */
    api::AppHandle handle{};
};

/**
 * Cross-site query layer for one logical application deployed at
 * several sites.
 */
class GeoCoordinator
{
  public:
    /** @param sites at least one site; app must be registered at each */
    explicit GeoCoordinator(std::vector<Site> sites);

    /** Number of participating sites. */
    int siteCount() const { return static_cast<int>(sites_.size()); }

    /** All sites in registration order. */
    const std::vector<Site> &sites() const { return sites_; }

    /** Site by index (fatal when out of range). */
    const Site &site(int idx) const;

    /** Index of the site with the lowest grid carbon intensity now. */
    int lowestCarbonSite() const;

    /** Grid carbon intensity at a site, gCO2/kWh. */
    double carbonAt(int idx) const;

    /** Total attributed carbon for the app across all sites, grams. */
    double totalCarbonG() const;

  private:
    std::vector<Site> sites_;
};

} // namespace ecov::geo

#endif // ECOV_GEO_GEO_COORDINATOR_H
