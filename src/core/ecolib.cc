#include "core/ecolib.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace ecov::core {

EcoLib::EcoLib(Ecovisor *ecovisor, std::string app)
    : eco_(ecovisor), app_(std::move(app))
{
    if (!eco_)
        fatal("EcoLib: null ecovisor");
    // Resolve the name exactly once; every later query is
    // handle-addressed.
    auto resolved = eco_->findApp(app_);
    if (!resolved.ok())
        fatal("EcoLib: unknown app '" + app_ + "'");
    handle_ = resolved.value();
    cop_app_ = eco_->copAppIndex(handle_);
    // Resolve the interval-query series once too: every per-tick
    // query below is then an indexed read with a cursor hint.
    power_series_ =
        eco_->appSeriesId(handle_, api::AppMetric::PowerW).value();
    carbon_series_ =
        eco_->appSeriesId(handle_, api::AppMetric::CarbonG).value();
    eco_->registerTickCallback(
              handle_,
              [this](TimeS start_s, TimeS dt_s) { onTick(start_s, dt_s); })
        .orFatal();
}

double
EcoLib::getAppPower() const
{
    return eco_->ves(handle_)->lastSettlement().demand_w;
}

double
EcoLib::getAppEnergyWh(TimeS t1, TimeS t2) const
{
    return eco_->db().series(power_series_).integrateWh(
        t1, t2, &energy_cursor_);
}

double
EcoLib::getAppCarbonG(TimeS t1, TimeS t2) const
{
    return eco_->db().series(carbon_series_).sumRange(t1, t2,
                                                      &carbon_cursor_);
}

double
EcoLib::getAppCarbonG() const
{
    return eco_->ves(handle_)->totalCarbonG();
}

EcoLib::ContainerSeries *
EcoLib::containerSeries(cop::ContainerId id) const
{
    auto it = container_series_.find(id);
    if (it != container_series_.end())
        return &it->second;
    // First query for this container: resolve the string keys once.
    // Queries never intern (the const contract: an unknown series
    // reads as empty), so an unrecorded container is simply retried
    // on the next call rather than cached as absent.
    const std::string tag = std::to_string(id);
    ContainerSeries cs;
    cs.power = eco_->db().findSeries("container_power_w", tag);
    cs.carbon = eco_->db().findSeries("container_carbon_g", tag);
    if (cs.power == ts::kInvalidSeries ||
        cs.carbon == ts::kInvalidSeries)
        return nullptr;
    return &container_series_.emplace(id, cs).first->second;
}

double
EcoLib::getContainerEnergyWh(cop::ContainerId id, TimeS t1, TimeS t2) const
{
    ContainerSeries *cs = containerSeries(id);
    if (!cs)
        return 0.0;
    return eco_->db().series(cs->power).integrateWh(t1, t2,
                                                    &cs->power_cursor);
}

double
EcoLib::getContainerCarbonG(cop::ContainerId id, TimeS t1, TimeS t2) const
{
    ContainerSeries *cs = containerSeries(id);
    if (!cs)
        return 0.0;
    return eco_->db().series(cs->carbon).sumRange(t1, t2,
                                                  &cs->carbon_cursor);
}

void
EcoLib::setCarbonRate(double g_per_s)
{
    if (g_per_s < 0.0)
        fatal("EcoLib::setCarbonRate: negative rate");
    rate_g_per_s_ = g_per_s;
}

void
EcoLib::clearCarbonRate()
{
    rate_g_per_s_.reset();
    // Allocation-free walk; uncapping mutates caps only, never the
    // container list itself, so iterating while setting is safe.
    eco_->cluster().forEachAppContainer(
        cop_app_, [&](cop::ContainerId, cop::ContainerRef ref) {
            eco_->setContainerPowercap(api::ContainerHandle(ref), kUnlimitedW)
                .orFatal();
        });
}

void
EcoLib::setContainerCarbonRate(cop::ContainerId id, double g_per_s)
{
    if (g_per_s < 0.0)
        fatal("EcoLib::setContainerCarbonRate: negative rate");
    if (!eco_->cluster().exists(id) ||
        eco_->cluster().container(id).app != cop_app_)
        fatal("EcoLib::setContainerCarbonRate: container not owned by "
              "app '" + app_ + "'");
    container_rates_g_per_s_[id] = g_per_s;
}

void
EcoLib::clearContainerCarbonRate(cop::ContainerId id)
{
    if (container_rates_g_per_s_.erase(id) > 0 &&
        eco_->cluster().exists(id))
        eco_->setContainerPowercap(api::handleOf(eco_->cluster(), id),
                                   kUnlimitedW)
            .orFatal();
}

void
EcoLib::setCarbonBudget(double budget_g)
{
    if (budget_g < 0.0)
        fatal("EcoLib::setCarbonBudget: negative budget");
    budget_g_ = budget_g;
    spent_g_at_budget_set_ = eco_->ves(handle_)->totalCarbonG();
}

double
EcoLib::carbonBudgetRemaining() const
{
    if (!budget_g_)
        fatal("EcoLib::carbonBudgetRemaining: no budget set");
    double spent =
        eco_->ves(handle_)->totalCarbonG() - spent_g_at_budget_set_;
    return *budget_g_ - spent;
}

void
EcoLib::notifySolarChange(ChangeNotify cb, double threshold)
{
    if (!cb)
        fatal("EcoLib::notifySolarChange: null callback");
    solar_watch_.push_back({std::move(cb), threshold});
}

void
EcoLib::notifyCarbonChange(ChangeNotify cb, double threshold)
{
    if (!cb)
        fatal("EcoLib::notifyCarbonChange: null callback");
    carbon_watch_.push_back({std::move(cb), threshold});
}

void
EcoLib::notifyBatteryFull(Notify cb)
{
    if (!cb)
        fatal("EcoLib::notifyBatteryFull: null callback");
    full_watch_.push_back(std::move(cb));
}

void
EcoLib::notifyBatteryEmpty(Notify cb)
{
    if (!cb)
        fatal("EcoLib::notifyBatteryEmpty: null callback");
    empty_watch_.push_back(std::move(cb));
}

void
EcoLib::onTick(TimeS start_s, TimeS dt_s)
{
    if (rate_g_per_s_)
        enforceCarbonRate(start_s, dt_s);
    enforceContainerCarbonRates();
    fireNotifications();
}

void
EcoLib::enforceContainerCarbonRates()
{
    if (container_rates_g_per_s_.empty())
        return;
    double intensity = eco_->getGridCarbon();
    for (auto it = container_rates_g_per_s_.begin();
         it != container_rates_g_per_s_.end();) {
        if (!eco_->cluster().exists(it->first)) {
            it = container_rates_g_per_s_.erase(it);
            continue;
        }
        double cap_w = intensity > 1e-12
            ? it->second * 3600.0 * 1000.0 / intensity
            : kUnlimitedW;
        eco_->setContainerPowercap(
                api::handleOf(eco_->cluster(), it->first), cap_w)
            .orFatal();
        ++it;
    }
}

void
EcoLib::enforceCarbonRate(TimeS start_s, TimeS dt_s)
{
    (void)start_s;
    (void)dt_s;
    const int count = eco_->cluster().appContainerCount(cop_app_);
    if (count == 0)
        return;

    // Grid power that keeps emissions at the rate limit:
    //   rate [g/s] = grid_w * intensity [g/kWh] / (1000 * 3600)
    double intensity = eco_->getGridCarbon();
    double allowed_grid_w = intensity > 1e-12
        ? *rate_g_per_s_ * 3600.0 * 1000.0 / intensity
        : kUnlimitedW;

    // Zero-carbon supply is free: virtual solar plus whatever the
    // battery is permitted to discharge.
    const auto &ves = *eco_->ves(handle_);
    double zero_carbon_w = eco_->getSolarPower(handle_).value();
    if (ves.hasBattery()) {
        double batt_w = std::min(ves.maxDischargeW(),
                                 ves.battery().config().max_discharge_w);
        if (ves.battery().empty())
            batt_w = 0.0;
        zero_carbon_w += batt_w;
    }

    double budget_w = zero_carbon_w + allowed_grid_w;
    double per_container_w = budget_w / static_cast<double>(count);
    eco_->cluster().forEachAppContainer(
        cop_app_, [&](cop::ContainerId, cop::ContainerRef ref) {
            eco_->setContainerPowercap(api::ContainerHandle(ref),
                                       per_container_w)
                .orFatal();
        });
}

void
EcoLib::fireNotifications()
{
    // One batched snapshot serves every watch below coherently.
    const api::EnergySnapshot snap =
        eco_->getEnergySnapshot(handle_).value();
    double solar = snap.solar_w;
    if (prev_solar_w_ >= 0.0) {
        double base = std::max(prev_solar_w_, 1e-9);
        double rel = std::fabs(solar - prev_solar_w_) / base;
        for (auto &w : solar_watch_) {
            if (rel > w.threshold)
                w.cb(prev_solar_w_, solar);
        }
    }
    prev_solar_w_ = solar;

    double carbon = snap.grid_carbon_g_per_kwh;
    if (prev_carbon_ >= 0.0) {
        double base = std::max(prev_carbon_, 1e-9);
        double rel = std::fabs(carbon - prev_carbon_) / base;
        for (auto &w : carbon_watch_) {
            if (rel > w.threshold)
                w.cb(prev_carbon_, carbon);
        }
    }
    prev_carbon_ = carbon;

    const auto &ves = *eco_->ves(handle_);
    if (ves.hasBattery()) {
        bool full = ves.battery().full();
        bool empty = ves.battery().empty();
        if (full && !prev_full_) {
            for (auto &cb : full_watch_)
                cb();
        }
        if (empty && !prev_empty_) {
            for (auto &cb : empty_watch_)
                cb();
        }
        prev_full_ = full;
        prev_empty_ = empty;
    }
}

} // namespace ecov::core
