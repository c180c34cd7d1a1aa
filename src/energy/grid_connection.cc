#include "energy/grid_connection.h"

#include <algorithm>

#include "util/logging.h"

namespace ecov::energy {

GridConnection::GridConnection(const carbon::CarbonIntensitySignal *signal,
                               double max_power_w)
    : signal_(signal), max_power_w_(max_power_w)
{
    if (!signal_)
        fatal("GridConnection: null carbon signal");
    if (max_power_w_ < 0.0)
        fatal("GridConnection: negative feeder limit");
}

double
GridConnection::carbonIntensityAt(TimeS t) const
{
    return signal_->intensityAt(t);
}

double
GridConnection::draw(double power_w, TimeS t, TimeS dt_s)
{
    if (power_w < 0.0)
        fatal("GridConnection::draw: negative power");
    if (dt_s <= 0)
        return 0.0;
    double supplied_w = power_w;
    if (max_power_w_ > 0.0)
        supplied_w = std::min(supplied_w, max_power_w_);
    double wh = energyWh(supplied_w, dt_s);
    total_energy_wh_ += wh;
    total_carbon_g_ += carbonGrams(wh, signal_->intensityAt(t));
    return supplied_w;
}

} // namespace ecov::energy
