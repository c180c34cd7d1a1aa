/**
 * @file
 * Multi-series database tests.
 */

#include <gtest/gtest.h>

#include <string>

#include "telemetry/ts_database.h"

namespace ecov::ts {
namespace {

/** The newest sample's value of a non-empty series. */
double
lastValue(const TsDatabase &db, const std::string &m,
          const std::string &t = "")
{
    return db.series(m, t).samples().back().value;
}

TEST(TsDatabase, FirstAppendMakesSeriesVisible)
{
    TsDatabase db;
    EXPECT_TRUE(db.series("power", "app1").empty());
    db.append(db.intern("power", "app1"), 0, 5.0);
    EXPECT_FALSE(db.series("power", "app1").empty());
    EXPECT_EQ(db.seriesCount(), 1u);
}

TEST(TsDatabase, UnknownSeriesIsEmptyNotFatal)
{
    TsDatabase db;
    const TimeSeries &s = db.series("nope", "nothing");
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.integrateWh(0, 1000), 0.0);
}

TEST(TsDatabase, TagsSeparateSeries)
{
    TsDatabase db;
    db.append(db.intern("power", "app1"), 0, 5.0);
    db.append(db.intern("power", "app2"), 0, 7.0);
    EXPECT_DOUBLE_EQ(lastValue(db, "power", "app1"), 5.0);
    EXPECT_DOUBLE_EQ(lastValue(db, "power", "app2"), 7.0);
    EXPECT_EQ(db.seriesCount(), 2u);
}

TEST(TsDatabase, MeasurementsSeparateSeries)
{
    TsDatabase db;
    db.append(db.intern("power", "x"), 0, 1.0);
    db.append(db.intern("carbon", "x"), 0, 2.0);
    EXPECT_DOUBLE_EQ(lastValue(db, "power", "x"), 1.0);
    EXPECT_DOUBLE_EQ(lastValue(db, "carbon", "x"), 2.0);
}

TEST(TsDatabase, KeysAreSortedAndComplete)
{
    TsDatabase db;
    db.append(db.intern("b", "2"), 0, 0.0);
    db.append(db.intern("a", "1"), 0, 0.0);
    db.append(db.intern("a", "2"), 0, 0.0);
    auto keys = db.keys();
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0].measurement, "a");
    EXPECT_EQ(keys[0].tag, "1");
    EXPECT_EQ(keys[1].measurement, "a");
    EXPECT_EQ(keys[1].tag, "2");
    EXPECT_EQ(keys[2].measurement, "b");
}

TEST(TsDatabase, DefaultTagIsEmptyString)
{
    TsDatabase db;
    db.append(db.intern("grid_carbon", ""), 0, 250.0);
    EXPECT_FALSE(db.series("grid_carbon").empty());
    EXPECT_DOUBLE_EQ(lastValue(db, "grid_carbon"), 250.0);
}

TEST(TsDatabase, AppendsAccumulate)
{
    TsDatabase db;
    for (TimeS t = 0; t < 600; t += 60)
        db.append(db.intern("power", "a"), t, static_cast<double>(t));
    EXPECT_EQ(db.series("power", "a").size(), 10u);
}

} // namespace
} // namespace ecov::ts
