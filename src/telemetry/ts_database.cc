#include "telemetry/ts_database.h"

#include "util/logging.h"

namespace ecov::ts {

const TimeSeries TsDatabase::empty_{};

SeriesId
TsDatabase::intern(const std::string &measurement, const std::string &tag)
{
    auto it = index_.find(Key{measurement, tag});
    if (it != index_.end())
        return it->second;
    const auto id = static_cast<SeriesId>(slab_.size());
    slab_.emplace_back();
    if (default_retention_.bounded())
        slab_.back().setRetention(default_retention_);
    index_.emplace(Key{measurement, tag}, id);
    return id;
}

void
TsDatabase::setDefaultRetention(const RetentionConfig &config)
{
    default_retention_ = config;
}

std::size_t
TsDatabase::memoryBytes() const
{
    std::size_t bytes = 0;
    for (const auto &s : slab_)
        bytes += s.memoryBytes();
    return bytes;
}

SeriesId
TsDatabase::findSeries(const std::string &measurement,
                       const std::string &tag) const
{
    auto it = index_.find(Key{measurement, tag});
    return it == index_.end() ? kInvalidSeries : it->second;
}

void
TsDatabase::append(SeriesId id, TimeS time_s, double value)
{
    if (id < 0 || static_cast<std::size_t>(id) >= slab_.size())
        fatal("TsDatabase::append: invalid series id");
    slab_[static_cast<std::size_t>(id)].append(time_s, value);
}

const TimeSeries &
TsDatabase::series(SeriesId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= slab_.size())
        fatal("TsDatabase::series: invalid series id");
    return slab_[static_cast<std::size_t>(id)];
}

void
TsDatabase::reserve(SeriesId id, std::size_t n)
{
    if (id < 0 || static_cast<std::size_t>(id) >= slab_.size())
        fatal("TsDatabase::reserve: invalid series id");
    slab_[static_cast<std::size_t>(id)].reserve(n);
}

const TimeSeries &
TsDatabase::series(const std::string &measurement,
                   const std::string &tag) const
{
    const SeriesId id = findSeries(measurement, tag);
    return id == kInvalidSeries ? empty_
                                : slab_[static_cast<std::size_t>(id)];
}

bool
TsDatabase::has(const std::string &measurement, const std::string &tag) const
{
    const SeriesId id = findSeries(measurement, tag);
    return id != kInvalidSeries &&
           !slab_[static_cast<std::size_t>(id)].empty();
}

std::vector<TsDatabase::Key>
TsDatabase::keys() const
{
    // index_ iterates sorted; skip interned-but-empty series so
    // pre-resolved ids stay invisible until written.
    std::vector<Key> out;
    out.reserve(index_.size());
    for (const auto &kv : index_) {
        if (!slab_[static_cast<std::size_t>(kv.second)].empty())
            out.push_back(kv.first);
    }
    return out;
}

std::size_t
TsDatabase::seriesCount() const
{
    std::size_t n = 0;
    for (const auto &s : slab_) {
        if (!s.empty())
            ++n;
    }
    return n;
}

void
TsDatabase::clear()
{
    index_.clear();
    slab_.clear();
}

} // namespace ecov::ts
