/**
 * @file
 * The TsDatabase series slab: interned SeriesIds, idempotent
 * interning, and the visibility rules for interned-but-never-written
 * series.
 */

#include <gtest/gtest.h>

#include <string>

#include "telemetry/ts_database.h"
#include "util/logging.h"

namespace ecov::ts {
namespace {

TEST(SeriesSlab, InternIsStableAndIdempotent)
{
    TsDatabase db;
    const SeriesId a = db.intern("power", "app1");
    const SeriesId b = db.intern("power", "app2");
    const SeriesId c = db.intern("carbon", "app1");
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(db.intern("power", "app1"), a);
    EXPECT_EQ(db.findSeries("power", "app1"), a);
    EXPECT_EQ(db.findSeries("power", "nope"), kInvalidSeries);
    EXPECT_EQ(db.internedCount(), 3u);
}

TEST(SeriesSlab, AppendByIdEqualsAppendByReinternedName)
{
    // Interleaved appends through cached ids and through a fresh
    // intern() per sample must land in the same series in the same
    // order with the same bits: intern() of a known pair is a lookup.
    TsDatabase by_id, by_string;
    const SeriesId p = by_id.intern("power", "a");
    const SeriesId q = by_id.intern("power", "b");
    for (TimeS t = 0; t < 600; t += 60) {
        const double v1 = 0.1 * static_cast<double>(t) + 0.25;
        const double v2 = 7.0 / (static_cast<double>(t) + 3.0);
        by_id.append(p, t, v1);
        by_id.append(q, t, v2);
        by_string.append(by_string.intern("power", "a"), t, v1);
        by_string.append(by_string.intern("power", "b"), t, v2);
    }
    for (const char *tag : {"a", "b"}) {
        const TimeSeries &x = by_id.series("power", tag);
        const TimeSeries &y = by_string.series("power", tag);
        ASSERT_EQ(x.size(), y.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            EXPECT_EQ(x.samples()[i].time_s, y.samples()[i].time_s);
            EXPECT_EQ(x.samples()[i].value, y.samples()[i].value);
        }
    }
}

TEST(SeriesSlab, InternedButEmptySeriesAreInvisible)
{
    TsDatabase db;
    const SeriesId a = db.intern("power", "app1");
    db.intern("power", "never_written");
    EXPECT_EQ(db.seriesCount(), 0u);
    EXPECT_TRUE(db.keys().empty());
    EXPECT_TRUE(db.series("power", "app1").empty());
    // The indexed surface still sees the (empty) series.
    EXPECT_TRUE(db.series(a).empty());

    db.append(a, 0, 1.5);
    EXPECT_EQ(db.seriesCount(), 1u);
    auto keys = db.keys();
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0].measurement, "power");
    EXPECT_EQ(keys[0].tag, "app1");
    EXPECT_FALSE(db.series("power", "app1").empty());
}

TEST(SeriesSlab, SeriesReferencesSurviveLaterInterning)
{
    TsDatabase db;
    const SeriesId a = db.intern("m", "first");
    db.append(a, 0, 42.0);
    const TimeSeries &ref = db.series(a);
    // Intern enough fresh series to force any contiguous storage to
    // grow; the deque slab must not relocate existing series.
    for (int i = 0; i < 1000; ++i)
        db.intern("m", "tag" + std::to_string(i));
    EXPECT_EQ(&db.series(a), &ref);
    EXPECT_DOUBLE_EQ(ref.samples().back().value, 42.0);
}

TEST(SeriesSlab, ReservePreSizesWithoutSamples)
{
    TsDatabase db;
    const SeriesId a = db.intern("m", "t");
    db.reserve(a, 500);
    EXPECT_GE(db.series(a).capacity(), 500u);
    EXPECT_TRUE(db.series(a).empty());
    EXPECT_EQ(db.seriesCount(), 0u);
}

TEST(SeriesSlab, InvalidIdsAreFatalNotSilent)
{
    TsDatabase db;
    EXPECT_THROW(db.append(0, 0, 1.0), FatalError);
    EXPECT_THROW(db.series(SeriesId{3}), FatalError);
    EXPECT_THROW(db.reserve(kInvalidSeries, 10), FatalError);
}

} // namespace
} // namespace ecov::ts
