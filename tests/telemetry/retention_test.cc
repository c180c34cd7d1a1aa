/**
 * @file
 * Bounded-retention telemetry: the hot ring must stay within its
 * bound, every interval query must stay bit-identical to an unbounded
 * shadow series over the exact (ring + cold block) coverage, evicted
 * history must clamp to 0 rather than extrapolate, stale cursors must
 * self-reset across eviction batches, and a retention-bounded
 * ecovisor must keep the sharded-recording determinism contract
 * (bounded + threads == bounded sequential, bit for bit).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rig.h"
#include "core/ecolib.h"
#include "core/ecovisor.h"
#include "telemetry/block.h"
#include "telemetry/retention.h"
#include "telemetry/ts_database.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ecov::ts {
namespace {

using core::EcovisorOptions;
using testutil::Rig;
using testutil::appShare;

/**
 * Assert every interval query on `bounded` equals the unbounded
 * shadow, for windows starting anywhere inside the exact coverage
 * (bit-identical, not approximately).
 */
void
expectExactInsideCoverage(const TimeSeries &bounded,
                          const TimeSeries &shadow, TimeS last_t)
{
    const TimeS from =
        bounded.hasRetired() ? bounded.exactSince()
                             : shadow.sample(0).time_s - 100;
    Rng rng{99};
    for (int q = 0; q < 250; ++q) {
        const TimeS t1 =
            from + ((last_t - from) * q) / 250;
        const TimeS t2 =
            t1 + 1 + static_cast<TimeS>(rng.uniform(0.0, 9000.0));
        EXPECT_EQ(bounded.integrateWh(t1, t2),
                  shadow.integrateWh(t1, t2))
            << "t1=" << t1 << " t2=" << t2;
        EXPECT_EQ(bounded.sumRange(t1, t2), shadow.sumRange(t1, t2))
            << "t1=" << t1 << " t2=" << t2;
        EXPECT_EQ(bounded.maxRange(t1, t2), shadow.maxRange(t1, t2))
            << "t1=" << t1 << " t2=" << t2;
    }
}

TEST(Retention, CountBoundKeepsRingSmallAndQueriesExact)
{
    TimeSeries bounded;
    RetentionConfig cfg;
    cfg.max_samples = 256;
    cfg.seal_batch = 32;
    bounded.setRetention(cfg);
    EXPECT_TRUE(bounded.bounded());

    TimeSeries shadow;
    Rng rng{77};
    TimeS t = 0;
    for (int i = 0; i < 5000; ++i) {
        // Irregular cadence: seal cuts land on uneven minute seams.
        t += 30 + static_cast<TimeS>(rng.uniform(0.0, 60.0));
        const double v = rng.uniform(-50.0, 150.0);
        bounded.append(t, v);
        shadow.append(t, v);
    }

    EXPECT_LE(bounded.size(), cfg.max_samples + cfg.seal_batch);
    EXPECT_EQ(bounded.totalAppends(), 5000u);
    EXPECT_GT(bounded.coldBlockCount(), 0u);
    EXPECT_TRUE(bounded.hasRetired()); // 5000 >> cold_keep * 256
    EXPECT_GT(bounded.epoch(), 0u);
    EXPECT_LT(bounded.memoryBytes(), shadow.memoryBytes());

    expectExactInsideCoverage(bounded, shadow, t);
}

TEST(Retention, WindowBoundKeepsRingSmallAndQueriesExact)
{
    TimeSeries bounded;
    RetentionConfig cfg;
    cfg.window_s = 2 * 3600;
    bounded.setRetention(cfg);

    TimeSeries shadow;
    for (int i = 0; i < 5000; ++i) {
        const TimeS t = static_cast<TimeS>(i) * 60;
        const double v = 5.0 + static_cast<double>(i % 97) * 0.25;
        bounded.append(t, v);
        shadow.append(t, v);
    }

    // 2 h of minute ticks = 120 raw samples (+ the seal batch slack).
    EXPECT_LE(bounded.size(), 121u + cfg.seal_batch);
    EXPECT_TRUE(bounded.hasRetired());
    expectExactInsideCoverage(bounded, shadow, 5000 * 60);
}

TEST(Retention, BothBoundsComposeTighterWins)
{
    TimeSeries bounded;
    RetentionConfig cfg;
    cfg.max_samples = 1000;  // looser than...
    cfg.window_s = 1800;     // ...30 min of minute ticks (30 samples)
    bounded.setRetention(cfg);
    TimeSeries shadow;
    for (int i = 0; i < 2000; ++i) {
        bounded.append(static_cast<TimeS>(i) * 60, double(i));
        shadow.append(static_cast<TimeS>(i) * 60, double(i));
    }
    EXPECT_LE(bounded.size(), 31u + cfg.seal_batch);
    expectExactInsideCoverage(bounded, shadow, 2000 * 60);
}

/**
 * The boundary-clamp bugfix: a window whose start precedes all
 * retained knowledge must read 0 over the evicted span — never an
 * extrapolation of the (long-gone) first sample — while the same
 * window on an unbounded series sees the history.
 */
TEST(Retention, EvictedHistoryClampsToZero)
{
    TimeSeries bounded;
    RetentionConfig cfg;
    cfg.window_s = 3600;
    cfg.cold_keep = 1.0;
    cfg.minute_keep = 1.0;
    cfg.hour_keep = 1.0; // rollups barely outlive the cold span
    bounded.setRetention(cfg);

    TimeSeries shadow;
    const TimeS first = 999983; // deliberately unaligned
    TimeS t = first;
    for (int i = 0; i < 100 * 60; ++i) { // 100 h of minute ticks
        bounded.append(t, 100.0);
        shadow.append(t, 100.0);
        t += 60;
    }

    // An hour-wide window ~97 h behind the newest sample: evicted
    // from every tier. Unbounded integrates ~100 Wh; bounded clamps.
    const TimeS a = first + 2 * 3600;
    EXPECT_GT(shadow.integrateWh(a, a + 3600), 99.0);
    EXPECT_EQ(bounded.integrateWh(a, a + 3600), 0.0);
    EXPECT_EQ(bounded.sumRange(a, a + 3600), 0.0);
    EXPECT_EQ(bounded.maxRange(a, a + 3600), 0.0);

    // A window straddling the clamp boundary must not extrapolate
    // into the dead zone either: it can never exceed the unbounded
    // result over the same window.
    const TimeS newest = t - 60;
    EXPECT_LE(bounded.integrateWh(a, newest),
              shadow.integrateWh(a, newest));
}

TEST(Retention, EmptyBoundedSeriesReturnsZeroEverywhere)
{
    TimeSeries s;
    RetentionConfig cfg;
    cfg.max_samples = 16;
    s.setRetention(cfg);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.integrateWh(-100, 100), 0.0);
    EXPECT_EQ(s.sumRange(-100, 100), 0.0);
    EXPECT_EQ(s.maxRange(-100, 100), 0.0);
    // A forged cursor on an empty series must not underflow anything.
    Cursor cur{42, 7};
    EXPECT_EQ(s.integrateWh(0, 100, &cur), 0.0);
    EXPECT_EQ(s.sumRange(0, 100, &cur), 0.0);
    EXPECT_EQ(cur.index, 0u);
}

TEST(Retention, ConfiguringAFilledSeriesIsFatal)
{
    TimeSeries s;
    s.append(0, 1.0);
    RetentionConfig cfg;
    cfg.max_samples = 4;
    EXPECT_THROW(s.setRetention(cfg), FatalError);
}

/**
 * The stale-cursor regression: a cursor captured before an eviction
 * batch points into the old ring layout. Its mismatched epoch must
 * make the query ignore it (self-reset) — the result must equal the
 * cursorless query and the cursor must come back valid for the new
 * epoch.
 */
TEST(Retention, StaleCursorSelfResetsAfterEviction)
{
    TimeSeries s;
    RetentionConfig cfg;
    cfg.max_samples = 128;
    cfg.seal_batch = 16;
    s.setRetention(cfg);
    TimeS t = 0;
    auto appendN = [&](int n) {
        for (int i = 0; i < n; ++i) {
            s.append(t, static_cast<double>(t % 997));
            t += 60;
        }
    };

    appendN(200);
    Cursor cur;
    const TimeS w1 = t - 3600;
    EXPECT_EQ(s.integrateWh(w1, t, &cur), s.integrateWh(w1, t));
    EXPECT_EQ(cur.epoch, s.epoch());
    EXPECT_EQ(cur.index, s.lowerBound(w1));

    const std::uint64_t epoch_before = s.epoch();
    appendN(1000); // several eviction batches
    ASSERT_GT(s.epoch(), epoch_before);

    const TimeS w2 = t - 3600;
    EXPECT_EQ(s.integrateWh(w2, t, &cur), s.integrateWh(w2, t));
    EXPECT_EQ(cur.index, s.lowerBound(w2));
    EXPECT_EQ(cur.epoch, s.epoch());
    cur = Cursor{};
    EXPECT_EQ(s.sumRange(w2, t, &cur), s.sumRange(w2, t));
    EXPECT_EQ(cur.index, s.lowerBound(w2));

    // Even a forged in-epoch index far past size() is only a hint.
    Cursor wild{std::size_t{1} << 40, s.epoch()};
    EXPECT_EQ(s.integrateWh(w2, t, &wild), s.integrateWh(w2, t));
    EXPECT_EQ(s.sumRange(w2, t, &wild), s.sumRange(w2, t));
}

/** A store holding `raw`, in order. */
SampleStore
storeOf(const std::vector<Sample> &raw)
{
    SampleStore store;
    for (const Sample &x : raw)
        store.append(x.time_s, x.value);
    return store;
}

TEST(Retention, SealedBlockRoundTripsBitExact)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<Sample> raw = {
        {-7200, -1.5},
        {-7200, nan}, // duplicate timestamp, NaN payload
        {-7100, 1e300},
        {-7100, -1e300},
        {-3600, 5e-324}, // denormal
        {-3599, 0.0},
        {-3599, -0.0},
        {7000000, 42.25}, // huge timestamp jump
    };
    const SealedBlock b =
        sealBlock(storeOf(raw), raw.size(), -7200, 7000020);
    EXPECT_EQ(b.count, raw.size());
    BlockCursor bc(b);
    Sample s;
    for (const Sample &expect : raw) {
        ASSERT_TRUE(bc.next(&s));
        EXPECT_EQ(s.time_s, expect.time_s);
        // Bit equality (EXPECT_EQ would reject NaN == NaN and conflate
        // +0.0 with -0.0).
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s.value),
                  std::bit_cast<std::uint64_t>(expect.value));
    }
    EXPECT_FALSE(bc.next(&s));
}

TEST(Retention, SealedBlockCompressesRegularSeries)
{
    // The recordTelemetry shape: constant cadence, slowly-moving
    // values. Delta-of-delta makes every timestamp 1 byte and the
    // value XORs stay small, so the payload must be well under the
    // raw 16 B/sample.
    std::vector<Sample> raw;
    double v = 250.0;
    for (int i = 0; i < 1000; ++i) {
        raw.push_back({static_cast<TimeS>(i) * 60, v});
        v += 0.25;
    }
    const SealedBlock b = sealBlock(storeOf(raw), raw.size(), 0, 60000);
    EXPECT_LT(b.payload.size(), raw.size() * sizeof(Sample) / 2);

    BlockCursor bc(b);
    Sample s;
    for (const Sample &expect : raw) {
        ASSERT_TRUE(bc.next(&s));
        EXPECT_EQ(s.time_s, expect.time_s);
        EXPECT_EQ(s.value, expect.value);
    }
}

TEST(Retention, RollupTierMatchesRawRecompute)
{
    RollupTier minute(60);
    TimeSeries shadow;
    Rng rng{5};
    TimeS t = 443; // unaligned start
    for (int i = 0; i < 3000; ++i) {
        t += 7 + static_cast<TimeS>(rng.uniform(0.0, 90.0));
        const double v = rng.uniform(0.0, 10.0);
        minute.record(t, v);
        shadow.append(t, v);
    }
    // Bucket-aligned ranges behind the open bucket: the composed
    // rollup integral/sum equals the raw recompute up to FP
    // re-association (buckets accumulate in a different order).
    // Unaligned boundaries are bucket-resolution approximations by
    // contract, so only aligned ones are probed here.
    const TimeS lo = alignUp(443 + 120, 60);
    const TimeS hi = alignDown(t, 60) - 60;
    const TimeS step = alignUp((hi - lo) / 17, 60);
    for (TimeS a = lo; a + 60 <= hi; a += step) {
        for (TimeS b : {a + 60, a + 600, hi}) {
            const double ref_vs = shadow.integrateWh(a, b) * 3600.0;
            EXPECT_NEAR(minute.integrateVs(a, b), ref_vs,
                        1e-9 * std::max(1.0, std::abs(ref_vs)))
                << "a=" << a << " b=" << b;
            const double ref_sum = shadow.sumRange(a, b);
            EXPECT_NEAR(minute.sumRange(a, b), ref_sum,
                        1e-9 * std::max(1.0, std::abs(ref_sum)))
                << "a=" << a << " b=" << b;
            bool seen = false;
            const double m = minute.maxRange(a, b, &seen);
            if (seen)
                EXPECT_EQ(m, shadow.maxRange(a, b))
                    << "a=" << a << " b=" << b;
            else
                EXPECT_EQ(shadow.maxRange(a, b), 0.0);
        }
    }
}

TEST(Retention, ReserveIsCappedAndNoOpAfterSeal)
{
    TimeSeries s;
    RetentionConfig cfg;
    cfg.max_samples = 100;
    cfg.seal_batch = 10;
    s.setRetention(cfg);
    // Pre-sizing for a million-tick horizon must cap at the bound.
    s.reserve(1000000);
    EXPECT_LE(s.capacity(), 2 * (cfg.max_samples + cfg.seal_batch));

    for (int i = 0; i < 500; ++i)
        s.append(static_cast<TimeS>(i) * 60, 1.0);
    ASSERT_GT(s.coldBlockCount() + (s.hasRetired() ? 1u : 0u), 0u);
    const std::size_t cap = s.capacity();
    s.reserve(1000000);
    EXPECT_EQ(s.capacity(), cap); // no-op once sealing has begun

    // Unbounded series keep the old unlimited reserve behavior.
    TimeSeries u;
    u.reserve(100000);
    EXPECT_GE(u.capacity(), 100000u);
}

TEST(Retention, DatabaseDefaultAppliesToFreshSeriesOnly)
{
    TsDatabase db;
    const SeriesId pre = db.intern("m", "pre");
    RetentionConfig cfg;
    cfg.max_samples = 8;
    db.setDefaultRetention(cfg);
    const SeriesId post = db.intern("m", "post");
    EXPECT_FALSE(db.series(pre).bounded());
    EXPECT_TRUE(db.series(post).bounded());
    EXPECT_EQ(db.series(post).retention().max_samples, 8u);
}

// ---------------------------------------------------------------------
// Ecovisor integration: the options plumb through to every series and
// the sharded determinism contract holds under eviction.
// ---------------------------------------------------------------------

/** Exact equality of everything both databases expose. */
void
expectDbBitIdentical(const TsDatabase &a, const TsDatabase &b)
{
    const auto ka = a.keys();
    const auto kb = b.keys();
    ASSERT_EQ(ka.size(), kb.size());
    for (std::size_t i = 0; i < ka.size(); ++i) {
        EXPECT_EQ(ka[i].measurement, kb[i].measurement);
        EXPECT_EQ(ka[i].tag, kb[i].tag);
        const TimeSeries &sa = a.series(ka[i].measurement, ka[i].tag);
        const TimeSeries &sb = b.series(kb[i].measurement, kb[i].tag);
        ASSERT_EQ(sa.size(), sb.size())
            << ka[i].measurement << "/" << ka[i].tag;
        ASSERT_EQ(sa.totalAppends(), sb.totalAppends());
        ASSERT_EQ(sa.coldBlockCount(), sb.coldBlockCount());
        ASSERT_EQ(sa.epoch(), sb.epoch());
        for (std::size_t j = 0; j < sa.size(); ++j) {
            EXPECT_EQ(sa.sample(j).time_s, sb.sample(j).time_s);
            EXPECT_EQ(sa.sample(j).value, sb.sample(j).value);
        }
    }
}

/** Drive one rig through a seeded churn+demand workload. */
struct Driver
{
    Rig rig;
    std::vector<std::string> names;
    std::vector<std::vector<cop::ContainerId>> pools;
    Rng rng{1234};

    explicit Driver(EcovisorOptions opts, int apps = 4) : rig(opts)
    {
        pools.resize(static_cast<std::size_t>(apps));
        for (int a = 0; a < apps; ++a) {
            names.push_back("app" + std::to_string(a));
            rig.eco
                .tryAddApp(names.back(),
                           appShare(0.8 / apps, 800.0 / apps))
                .value();
            auto id = rig.cluster.createContainer(names.back(), 1.0);
            if (id)
                pools[static_cast<std::size_t>(a)].push_back(*id);
        }
    }

    void
    run(int ticks)
    {
        for (int i = 0; i < ticks; ++i) {
            TimeS t = static_cast<TimeS>(i) * 60;
            for (std::size_t a = 0; a < pools.size(); ++a) {
                auto &pool = pools[a];
                if (rng.bernoulli(0.15) && !pool.empty()) {
                    rig.cluster.destroyContainer(pool.front());
                    pool.erase(pool.begin());
                }
                if (rng.bernoulli(0.25)) {
                    auto id =
                        rig.cluster.createContainer(names[a], 1.0);
                    if (id)
                        pool.push_back(*id);
                }
                for (std::size_t c = 0; c < pool.size(); ++c)
                    rig.cluster.setDemand(
                        pool[c], 0.1 + 0.8 * rng.uniform(0.0, 1.0));
            }
            rig.eco.dispatchTickCallbacks(t, 60);
            rig.eco.settleTick(t, 60);
        }
    }
};

TEST(Retention, OptionsPlumbToEverySeries)
{
    Rig rig(EcovisorOptions{.retention_samples = 64,
                            .retention_window_s = 7200});
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(0.5, 360.0)).ok());
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    rig.run(3);
    for (const auto &key : rig.eco.db().keys()) {
        const TimeSeries &s =
            rig.eco.db().series(key.measurement, key.tag);
        EXPECT_TRUE(s.bounded()) << key.measurement << "/" << key.tag;
        EXPECT_EQ(s.retention().max_samples, 64u);
        EXPECT_EQ(s.retention().window_s, 7200);
    }
}

TEST(Retention, BoundedShardedRecordingIsBitIdentical)
{
    Driver seq(EcovisorOptions{.threads = 1,
                               .retention_samples = 150});
    Driver par(EcovisorOptions{.threads = 4,
                               .retention_samples = 150});
    ASSERT_EQ(par.rig.eco.settleThreads(), 4);
    seq.run(900); // deep enough that every app series seals + retires
    par.run(900);
    expectDbBitIdentical(seq.rig.eco.db(), par.rig.eco.db());
}

TEST(Retention, BoundedEcovisorMatchesUnboundedInsideCoverage)
{
    // cold_keep (4 windows of 2 h) exceeds the 10 h horizon's tail,
    // so the exact coverage reaches back over most of the run; the
    // EcoLib-visible queries must be bit-identical to the unbounded
    // rig wherever the window start lands inside it.
    Driver bounded(
        EcovisorOptions{.retention_window_s = 2 * 3600});
    Driver unbounded(EcovisorOptions{});
    const int ticks = 600;
    bounded.run(ticks);
    unbounded.run(ticks);

    const auto &bdb = bounded.rig.eco.db();
    const auto &udb = unbounded.rig.eco.db();
    for (const char *m :
         {"grid_carbon", "solar_w", "cluster_power_w"}) {
        const TimeSeries &bs = bdb.series(m);
        const TimeSeries &us = udb.series(m);
        const TimeS from =
            bs.hasRetired() ? bs.exactSince() : 0;
        for (TimeS t1 = from; t1 < ticks * 60; t1 += 1800) {
            EXPECT_EQ(bs.integrateWh(t1, t1 + 1800),
                      us.integrateWh(t1, t1 + 1800))
                << m << " t1=" << t1;
            EXPECT_EQ(bs.sumRange(t1, t1 + 1800),
                      us.sumRange(t1, t1 + 1800))
                << m << " t1=" << t1;
        }
    }

    core::EcoLib blib(&bounded.rig.eco, "app0");
    core::EcoLib ulib(&unbounded.rig.eco, "app0");
    const TimeSeries &bp = bdb.series("app_power_w", "app0");
    const TimeS from = bp.hasRetired() ? bp.exactSince() : 0;
    for (TimeS t1 = from; t1 < ticks * 60; t1 += 900) {
        EXPECT_EQ(blib.getAppEnergyWh(t1, t1 + 900),
                  ulib.getAppEnergyWh(t1, t1 + 900));
        EXPECT_EQ(blib.getAppCarbonG(t1, t1 + 900),
                  ulib.getAppCarbonG(t1, t1 + 900));
    }
}

TEST(Retention, ExpectedTicksReservationIsCappedWhenBounded)
{
    Rig rig(EcovisorOptions{.expected_ticks = 1000000,
                            .retention_samples = 128});
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(0.5, 360.0)).ok());
    rig.eco.settleTick(0, 60);
    const TimeSeries &s = rig.eco.db().series("grid_carbon");
    EXPECT_LE(s.capacity(), 2 * (128u + s.retention().seal_batch));
}

} // namespace
} // namespace ecov::ts
