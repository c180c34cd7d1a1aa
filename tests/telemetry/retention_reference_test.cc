/**
 * @file
 * Differential test of the retention tiers against a per-append
 * reference.
 *
 * `ref::Series` below is a test-local copy of the earlier store: both
 * rollup tiers recorded on every append, each in a std::deque, and
 * cold spans kept as raw samples. ts::TimeSeries folds its minute tier
 * from each sealed span instead and holds every tier in a flat ring.
 * Seeded random configurations and sample streams drive the two side
 * by side, and every interval query must agree bit for bit — in the
 * rollup region, exactly at exactSince() and in the hot ring — along
 * with the tier shapes. The ring and the tier's drop-and-refill path
 * get unit tests of their own.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/retention.h"
#include "telemetry/ring.h"
#include "telemetry/time_series.h"
#include "util/rng.h"

/** Heap allocations made through operator new in this binary. */
static std::atomic<std::int64_t> g_news{0};

void *
operator new(std::size_t n)
{
    ++g_news;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ecov::ts {
namespace {

// ---------------------------------------------------------------------
// The reference: the per-append store, kept deliberately plain.
// ---------------------------------------------------------------------

namespace ref {

constexpr TimeS kCutAlignS = 60;

struct Bucket
{
    TimeS start_s;
    double sum, max, last, integral_vs;
};

/** A rollup tier fed on every append, in a deque. */
class Tier
{
  public:
    explicit Tier(TimeS width) : width_(width) {}

    bool empty() const { return b_.empty(); }
    std::size_t count() const { return b_.size(); }
    TimeS frontStart() const { return b_.empty() ? 0 : b_.front().start_s; }

    void
    record(TimeS t, double v)
    {
        const TimeS bstart = alignDown(t, width_);
        if (b_.empty() || b_.back().start_s != bstart) {
            if (!b_.empty())
                b_.back().integral_vs +=
                    carry_ * static_cast<double>(b_.back().start_s +
                                                 width_ - frontier_);
            b_.push_back(Bucket{bstart, v, v, v,
                                carry_ * static_cast<double>(t - bstart)});
        } else {
            Bucket &b = b_.back();
            b.integral_vs += carry_ * static_cast<double>(t - frontier_);
            b.sum += v;
            if (v > b.max)
                b.max = v;
            b.last = v;
        }
        frontier_ = t;
        carry_ = v;
    }

    void
    dropBefore(TimeS cut)
    {
        while (!b_.empty() && b_.front().start_s < cut)
            b_.pop_front();
    }

    double
    integrateVs(TimeS a, TimeS b) const
    {
        if (b <= a || b_.empty())
            return 0.0;
        auto it = lower(a);
        double carry = it != b_.begin() ? std::prev(it)->last : 0.0;
        double acc = 0.0;
        TimeS t = a;
        for (; it != b_.end() && it->start_s < b; ++it) {
            acc += carry * static_cast<double>(it->start_s - t);
            acc += it->integral_vs;
            t = it->start_s + width_;
            carry = it->last;
        }
        acc += carry * static_cast<double>(b - t);
        return acc;
    }

    double
    sumRange(TimeS a, TimeS b) const
    {
        double acc = 0.0;
        for (auto it = lower(a); it != b_.end() && it->start_s < b; ++it)
            acc += it->sum;
        return acc;
    }

    double
    maxRange(TimeS a, TimeS b, bool *seen) const
    {
        double best = 0.0;
        for (auto it = lower(a); it != b_.end() && it->start_s < b;
             ++it) {
            if (!*seen || it->max > best) {
                best = it->max;
                *seen = true;
            }
        }
        return best;
    }

  private:
    std::deque<Bucket>::const_iterator
    lower(TimeS t) const
    {
        return std::lower_bound(
            b_.begin(), b_.end(), t,
            [](const Bucket &b, TimeS v) { return b.start_s < v; });
    }

    TimeS width_;
    std::deque<Bucket> b_;
    TimeS frontier_ = 0;
    double carry_ = 0.0;
};

/** A cold span, kept raw. */
struct Block
{
    TimeS end_cut_s;
    double last_value;
    std::vector<Sample> samples;
};

/** The per-append bounded series. */
class Series
{
  public:
    explicit Series(RetentionConfig c) : cfg_(c)
    {
        if (cfg_.seal_batch == 0)
            cfg_.seal_batch = 1;
        cfg_.cold_keep = std::max(cfg_.cold_keep, 1.0);
        cfg_.minute_keep = std::max(cfg_.minute_keep, cfg_.cold_keep);
        cfg_.hour_keep = std::max(cfg_.hour_keep, cfg_.minute_keep);
    }

    std::size_t minuteCount() const { return minute_.count(); }
    std::size_t hourCount() const { return hour_.count(); }
    std::size_t coldCount() const { return cold_.size(); }
    std::size_t hotSize() const { return hot_.size(); }
    bool hasRetired() const { return retired_; }
    TimeS exactSince() const { return exact_since_; }

    void
    append(TimeS t, double v)
    {
        hot_.push_back(Sample{t, v});
        minute_.record(t, v);
        hour_.record(t, v);
        const std::size_t n = hot_.size();
        std::size_t keep_from = 0;
        if (cfg_.max_samples > 0 && n > cfg_.max_samples)
            keep_from = n - cfg_.max_samples;
        if (cfg_.window_s > 0)
            keep_from =
                std::max(keep_from, lowerBound(t - cfg_.window_s));
        if (keep_from < cfg_.seal_batch)
            return;
        const TimeS cut = alignDown(hot_[keep_from].time_s, kCutAlignS);
        const std::size_t seal_n = lowerBound(cut);
        if (seal_n > 0)
            seal(seal_n, cut);
    }

    double
    integrateWh(TimeS t1, TimeS t2) const
    {
        if (t2 <= t1 || hot_.empty())
            return 0.0;
        if ((cold_.empty() && !retired_) || t1 >= hot_.front().time_s) {
            std::size_t idx = lowerBound(t1);
            double current = idx > 0 ? hot_[idx - 1].value : 0.0;
            if (idx < hot_.size() && hot_[idx].time_s == t1)
                current = hot_[idx++].value;
            double acc = 0.0;
            TimeS cursor_t = t1;
            for (; idx < hot_.size() && hot_[idx].time_s < t2; ++idx) {
                acc += current *
                       static_cast<double>(hot_[idx].time_s - cursor_t);
                cursor_t = hot_[idx].time_s;
                current = hot_[idx].value;
            }
            acc += current * static_cast<double>(t2 - cursor_t);
            return acc / kSecondsPerHour;
        }
        double acc_vs = 0.0;
        TimeS a = t1;
        if (retired_ && t1 < exact_since_) {
            const TimeS rb = std::min(t2, exact_since_);
            acc_vs += rollupIntegrateVs(t1, rb);
            a = rb;
        }
        if (a < t2)
            acc_vs += exactIntegrateVs(a, t2);
        return acc_vs / kSecondsPerHour;
    }

    double
    sumRange(TimeS t1, TimeS t2) const
    {
        if (hot_.empty() || (cold_.empty() && !retired_) ||
            t1 >= hot_.front().time_s) {
            double acc = 0.0;
            for (std::size_t i = lowerBound(t1);
                 i < hot_.size() && hot_[i].time_s < t2; ++i)
                acc += hot_[i].value;
            return acc;
        }
        double acc = 0.0;
        if (retired_ && t1 < exact_since_)
            acc += rollupSumRange(t1, std::min(t2, exact_since_));
        const TimeS a = retired_ ? std::max(t1, exact_since_) : t1;
        if (a < t2) {
            double exact = 0.0;
            forExact(a, t2, [&](const Sample &s) { exact += s.value; });
            acc += exact;
        }
        return acc;
    }

    double
    maxRange(TimeS t1, TimeS t2) const
    {
        bool seen = false;
        double best = 0.0;
        auto take = [&](double v) {
            if (!seen || v > best) {
                best = v;
                seen = true;
            }
        };
        if (hot_.empty() || (cold_.empty() && !retired_) ||
            t1 >= hot_.front().time_s) {
            for (std::size_t i = lowerBound(t1);
                 i < hot_.size() && hot_[i].time_s < t2; ++i)
                take(hot_[i].value);
            return seen ? best : 0.0;
        }
        if (retired_ && t1 < exact_since_)
            best = rollupMaxRange(t1, std::min(t2, exact_since_), &seen);
        const TimeS a = retired_ ? std::max(t1, exact_since_) : t1;
        if (a < t2)
            forExact(a, t2, [&](const Sample &s) { take(s.value); });
        return seen ? best : 0.0;
    }

  private:
    std::size_t
    lowerBound(TimeS t) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(
                hot_.begin(), hot_.end(), t,
                [](const Sample &s, TimeS v) { return s.time_s < v; }) -
            hot_.begin());
    }

    void
    seal(std::size_t seal_n, TimeS cut)
    {
        Block blk{cut, hot_[seal_n - 1].value,
                  std::vector<Sample>(hot_.begin(),
                                      hot_.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              seal_n))};
        cold_.push_back(std::move(blk));
        cold_samples_ += seal_n;
        hot_.erase(hot_.begin(),
                   hot_.begin() + static_cast<std::ptrdiff_t>(seal_n));
        const TimeS newest = hot_.back().time_s;
        // Retire cold spans.
        while (!cold_.empty()) {
            const Block &front = cold_.front();
            const bool retire =
                cfg_.window_s > 0
                    ? front.end_cut_s <=
                          newest - static_cast<TimeS>(
                                       cfg_.cold_keep *
                                       static_cast<double>(cfg_.window_s))
                    : cold_samples_ >
                          static_cast<std::size_t>(
                              cfg_.cold_keep *
                              static_cast<double>(cfg_.max_samples));
            if (!retire)
                break;
            retired_ = true;
            exact_since_ = front.end_cut_s;
            before_exact_ = front.last_value;
            cold_samples_ -= front.samples.size();
            cold_.pop_front();
        }
        // Drop rollups.
        TimeS w_eff = cfg_.window_s;
        if (w_eff <= 0)
            w_eff = std::max<TimeS>(newest - hot_.front().time_s,
                                    kCutAlignS);
        minute_.dropBefore(alignDown(
            newest - static_cast<TimeS>(cfg_.minute_keep *
                                        static_cast<double>(w_eff)),
            3600));
        hour_.dropBefore(alignDown(
            newest - static_cast<TimeS>(cfg_.hour_keep *
                                        static_cast<double>(w_eff)),
            3600));
    }

    /** Visit the cold-then-hot samples with a <= time < b. */
    template <typename F>
    void
    forExact(TimeS a, TimeS b, F &&f) const
    {
        for (const Block &blk : cold_)
            for (const Sample &s : blk.samples) {
                if (s.time_s >= b)
                    return;
                if (s.time_s >= a)
                    f(s);
            }
        for (const Sample &s : hot_) {
            if (s.time_s >= b)
                return;
            if (s.time_s >= a)
                f(s);
        }
    }

    double
    exactIntegrateVs(TimeS a, TimeS b) const
    {
        double current = retired_ ? before_exact_ : 0.0;
        double acc = 0.0;
        TimeS cursor_t = a;
        bool at_start = true;
        bool stopped = false;
        auto step = [&](const Sample &s) {
            if (stopped)
                return;
            if (s.time_s < a) {
                current = s.value;
                return;
            }
            if (s.time_s >= b) {
                stopped = true;
                return;
            }
            if (at_start && s.time_s == a) {
                current = s.value;
                at_start = false;
                return;
            }
            at_start = false;
            acc += current * static_cast<double>(s.time_s - cursor_t);
            cursor_t = s.time_s;
            current = s.value;
        };
        for (const Block &blk : cold_)
            for (const Sample &s : blk.samples)
                step(s);
        for (const Sample &s : hot_)
            step(s);
        acc += current * static_cast<double>(b - cursor_t);
        return acc;
    }

    TimeS
    mstart(TimeS b) const
    {
        return minute_.empty() ? b : minute_.frontStart();
    }

    double
    rollupIntegrateVs(TimeS a, TimeS b) const
    {
        const TimeS ms = mstart(b);
        if (a >= ms)
            return minute_.integrateVs(a, b);
        const TimeS hb = std::min(b, alignDown(ms, 3600));
        double acc = hb > a ? hour_.integrateVs(a, hb) : 0.0;
        if (b > ms)
            acc += minute_.integrateVs(ms, b);
        return acc;
    }

    double
    rollupSumRange(TimeS a, TimeS b) const
    {
        const TimeS ms = mstart(b);
        if (a >= ms)
            return minute_.sumRange(a, b);
        double acc = hour_.sumRange(a, std::min(b, alignDown(ms, 3600)));
        if (b > ms)
            acc += minute_.sumRange(ms, b);
        return acc;
    }

    double
    rollupMaxRange(TimeS a, TimeS b, bool *seen) const
    {
        const TimeS ms = mstart(b);
        if (a >= ms)
            return minute_.maxRange(a, b, seen);
        double best =
            hour_.maxRange(a, std::min(b, alignDown(ms, 3600)), seen);
        if (b > ms) {
            bool mseen = false;
            const double m = minute_.maxRange(ms, b, &mseen);
            if (mseen && (!*seen || m > best)) {
                best = m;
                *seen = true;
            }
        }
        return best;
    }

    RetentionConfig cfg_;
    std::vector<Sample> hot_;
    std::deque<Block> cold_;
    std::size_t cold_samples_ = 0;
    bool retired_ = false;
    TimeS exact_since_ = 0;
    double before_exact_ = 0.0;
    Tier minute_{60};
    Tier hour_{3600};
};

} // namespace ref

// ---------------------------------------------------------------------
// The fuzz.
// ---------------------------------------------------------------------

std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** A keep multiplier: below its clamp, at it, or above it. */
double
keepAround(Rng &rng, double clamp)
{
    switch (rng.uniformInt(0, 2)) {
    case 0:
        return clamp * rng.uniform(0.0, 1.0);
    case 1:
        return clamp;
    default:
        return clamp + rng.uniform(0.0, 6.0);
    }
}

RetentionConfig
randomConfig(Rng &rng)
{
    RetentionConfig c;
    const auto kind = rng.uniformInt(0, 2); // count, window, both
    if (kind != 1)
        c.max_samples = static_cast<std::size_t>(rng.uniformInt(1, 300));
    if (kind != 0)
        c.window_s = rng.uniformInt(1, 8 * 3600);
    c.seal_batch = static_cast<std::size_t>(rng.uniformInt(0, 100));
    // The series clamps each keep up to the one before it; drawing
    // around the clamp exercises both sides of it.
    c.cold_keep = keepAround(rng, 1.0);
    c.minute_keep = keepAround(rng, std::max(c.cold_keep, 1.0));
    c.hour_keep = keepAround(rng, std::max(c.minute_keep, 1.0));
    return c;
}

/** Next timestamp for one of the cadences. */
struct Cadence
{
    int kind;    ///< 0 regular, 1 jittered, 2 gappy
    TimeS step;

    TimeS
    next(Rng &rng, TimeS t) const
    {
        if (rng.bernoulli(0.05))
            return t; // a repeated timestamp
        switch (kind) {
        case 0:
            return t + step;
        case 1:
            return t + std::max<TimeS>(
                           0, step + rng.uniformInt(-step / 2, step / 2));
        default:
            return t + (rng.bernoulli(0.03)
                            ? rng.uniformInt(step, 30 * 3600)
                            : step);
        }
    }
};

double
randomValue(Rng &rng)
{
    switch (rng.uniformInt(0, 9)) {
    case 0:
        return 0.0;
    case 1:
        return -0.0;
    case 2:
        return 1e300;
    case 3:
        return -1e-300;
    case 4:
        return static_cast<double>(rng.uniformInt(-5, 5));
    default:
        return rng.uniform(-100.0, 400.0);
    }
}

/** Distinct minutes among the hot ring's samples. */
std::size_t
hotMinutes(const TimeSeries &s)
{
    std::size_t n = 0;
    TimeS prev = 0;
    for (const Sample &x : s.samples()) {
        const TimeS m = alignDown(x.time_s, 60);
        if (n == 0 || m != prev)
            ++n;
        prev = m;
    }
    return n;
}

/** Collects mismatches, reporting the first few in full. */
struct Mismatches
{
    std::int64_t count = 0;
    std::int64_t checks = 0;
    /** Integrals answered (non-zero) partly from the rollup tiers. */
    std::int64_t rollup_answers = 0;

    void
    check(bool equal, const std::string &what)
    {
        ++checks;
        if (equal)
            return;
        if (++count <= 10)
            ADD_FAILURE() << what;
    }
};

void
compareQueries(const TimeSeries &s, const ref::Series &r, Rng &rng,
               std::uint64_t seed, Mismatches *mm, Cursor *wh_cursor,
               Cursor *sum_cursor)
{
    const TimeS newest = s.samples().back().time_s;
    const TimeS hot_front = s.samples().front().time_s;
    const TimeS exact = s.hasRetired() ? s.exactSince() : hot_front;
    // The oldest start worth probing: the retained rollups reach at
    // most hour_keep windows back, and a little before that must
    // clamp to 0 on both sides.
    const TimeS span = std::max<TimeS>(newest - exact, 3600);
    const TimeS oldest = exact - 3 * span - 7200;

    std::vector<TimeS> starts = {exact, hot_front, oldest};
    for (int i = 0; i < 6; ++i)
        starts.push_back(rng.uniformInt(oldest, exact));
    for (int i = 0; i < 4; ++i)
        starts.push_back(rng.uniformInt(exact, newest + 60));
    for (int i = 0; i < 3; ++i)
        starts.push_back(alignDown(rng.uniformInt(oldest, newest), 60));
    std::sort(starts.begin(), starts.end());

    for (TimeS t1 : starts) {
        const TimeS t2s[] = {t1 + rng.uniformInt(1, 600),
                             t1 + rng.uniformInt(600, 6 * 3600),
                             std::max(t1 + 1, exact),
                             newest + rng.uniformInt(0, 120)};
        for (TimeS t2 : t2s) {
            std::ostringstream at;
            at << "seed=" << seed << " t1=" << t1 << " t2=" << t2
               << " exact=" << exact << " hot_front=" << hot_front
               << " newest=" << newest;
            const double wh = r.integrateWh(t1, t2);
            if (s.hasRetired() && t1 < s.exactSince() && wh != 0.0)
                ++mm->rollup_answers;
            mm->check(bitsOf(s.integrateWh(t1, t2)) == bitsOf(wh),
                      "integrateWh " + at.str());
            mm->check(bitsOf(s.integrateWh(t1, t2, wh_cursor)) ==
                          bitsOf(wh),
                      "integrateWh(cursor) " + at.str());
            const double sum = r.sumRange(t1, t2);
            mm->check(bitsOf(s.sumRange(t1, t2)) == bitsOf(sum),
                      "sumRange " + at.str());
            mm->check(bitsOf(s.sumRange(t1, t2, sum_cursor)) ==
                          bitsOf(sum),
                      "sumRange(cursor) " + at.str());
            mm->check(bitsOf(s.maxRange(t1, t2)) ==
                          bitsOf(r.maxRange(t1, t2)),
                      "maxRange " + at.str());
        }
    }
}

void
compareShape(const TimeSeries &s, const ref::Series &r,
             std::uint64_t seed, Mismatches *mm)
{
    const std::string at = " seed=" + std::to_string(seed) +
                           " appends=" +
                           std::to_string(s.totalAppends());
    mm->check(s.size() == r.hotSize(), "hot size" + at);
    mm->check(s.hasRetired() == r.hasRetired() &&
                  (!s.hasRetired() || s.exactSince() == r.exactSince()),
              "exact coverage" + at);
    mm->check(s.coldBlockCount() == r.coldCount(), "coldBlockCount" + at);
    mm->check(s.hourBucketCount() == r.hourCount(), "hourBucketCount" + at);
    mm->check(s.minuteBucketCount() + hotMinutes(s) == r.minuteCount(),
              "minuteBucketCount + hot minutes" + at);
}

TEST(RetentionReference, RandomConfigurationsMatchBitForBit)
{
    Mismatches mm;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        Rng rng{seed * 7919};
        const RetentionConfig cfg = randomConfig(rng);
        TimeSeries s;
        s.setRetention(cfg);
        ref::Series r(cfg);

        static constexpr TimeS kSteps[] = {1, 7, 30, 59, 60, 61, 90,
                                           300, 3600};
        const Cadence cad{
            static_cast<int>(rng.uniformInt(0, 2)),
            kSteps[rng.uniformInt(
                0, static_cast<std::int64_t>(std::size(kSteps)) - 1)]};
        const int n = static_cast<int>(rng.uniformInt(50, 2500));
        const int checkpoints = 5;
        Cursor wh_cursor, sum_cursor;
        TimeS t = rng.uniformInt(-200000, 200000);
        for (int i = 1; i <= n; ++i) {
            const double v = randomValue(rng);
            s.append(t, v);
            r.append(t, v);
            if (i % (n / checkpoints) == 0 || i == n) {
                compareShape(s, r, seed, &mm);
                compareQueries(s, r, rng, seed, &mm, &wh_cursor,
                               &sum_cursor);
            }
            t = cad.next(rng, t);
        }
    }
    EXPECT_EQ(mm.count, 0) << "of " << mm.checks << " checks";
    EXPECT_GT(mm.checks, 100000);
    // The rollup region is exercised, not only the exact coverage.
    EXPECT_GT(mm.rollup_answers, 10000);
}

/**
 * The configurations the front rule and the cut-close exist for:
 * keeps at their clamps, so drops empty the minute tier and queries
 * hand off to the hour tier right behind the hot ring.
 */
TEST(RetentionReference, TightKeepsMatchBitForBit)
{
    Mismatches mm;
    std::uint64_t seed = 0;
    for (std::size_t max_samples : {std::size_t{1}, std::size_t{5},
                                    std::size_t{64}})
        for (TimeS window : {TimeS{0}, TimeS{61}, TimeS{3600}})
            for (TimeS step : {TimeS{1}, TimeS{45}, TimeS{60}, TimeS{700}})
                for (std::size_t batch : {std::size_t{0}, std::size_t{1},
                                          std::size_t{17}}) {
                    ++seed;
                    RetentionConfig cfg;
                    cfg.max_samples = max_samples;
                    cfg.window_s = window;
                    cfg.seal_batch = batch;
                    cfg.cold_keep = 1.0;
                    cfg.minute_keep = 1.0;
                    cfg.hour_keep = 1.0;
                    TimeSeries s;
                    s.setRetention(cfg);
                    ref::Series r(cfg);
                    Rng rng{seed};
                    Cursor wh, sum;
                    TimeS t = 1234567;
                    for (int i = 1; i <= 800; ++i) {
                        const double v = randomValue(rng);
                        s.append(t, v);
                        r.append(t, v);
                        if (i % 97 == 0) {
                            compareShape(s, r, seed, &mm);
                            compareQueries(s, r, rng, seed, &mm, &wh,
                                           &sum);
                        }
                        t += step;
                    }
                }
    EXPECT_EQ(mm.count, 0) << "of " << mm.checks << " checks";
    EXPECT_GT(mm.rollup_answers, 5000);
}

// ---------------------------------------------------------------------
// The ring and the tier's drop-and-refill path.
// ---------------------------------------------------------------------

std::vector<int>
contents(const Ring<int> &ring)
{
    std::vector<int> out;
    for (int v : ring)
        out.push_back(v);
    return out;
}

TEST(TelemetryRing, EmptyRingOwnsNoMemory)
{
    Ring<int> ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 0u);
    EXPECT_EQ(ring.partitionPoint([](int) { return true; }), 0u);
}

TEST(TelemetryRing, UnwrittenSeriesAllocateNothing)
{
    RetentionConfig cfg;
    cfg.max_samples = 8;
    const std::int64_t before = g_news.load();
    {
        TimeSeries unbounded;
        TimeSeries bounded;
        bounded.setRetention(cfg);
        EXPECT_EQ(unbounded.memoryBytes(), sizeof(TimeSeries));
        EXPECT_EQ(bounded.memoryBytes(), sizeof(TimeSeries));
    }
    EXPECT_EQ(g_news.load(), before);
}

TEST(TelemetryRing, WrapsAroundWithoutGrowing)
{
    Ring<int> ring;
    for (int i = 0; i < 4; ++i)
        ring.push_back(i);
    const std::size_t cap = ring.capacity();
    ASSERT_EQ(cap, 4u);
    // Pop and push past the end of the array many times over.
    for (int i = 4; i < 40; ++i) {
        ring.pop_front();
        ring.push_back(i);
        EXPECT_EQ(ring.front(), i - 3);
        EXPECT_EQ(ring.back(), i);
    }
    EXPECT_EQ(ring.capacity(), cap);
    EXPECT_EQ(contents(ring), (std::vector<int>{36, 37, 38, 39}));
    EXPECT_EQ(ring[2], 38);
    EXPECT_EQ(ring.partitionPoint([](int v) { return v < 38; }), 2u);
    EXPECT_EQ(ring.partitionPoint([](int v) { return v < 100; }), 4u);
}

TEST(TelemetryRing, GrowsWhileWrappedKeepingOrder)
{
    Ring<int> ring;
    for (int i = 0; i < 4; ++i)
        ring.push_back(i);
    ring.pop_front();
    ring.pop_front();
    ring.push_back(4);
    ring.push_back(5); // full, and wrapped: the head is at slot 2
    ASSERT_EQ(ring.capacity(), 4u);
    ring.push_back(6);
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_EQ(contents(ring), (std::vector<int>{2, 3, 4, 5, 6}));
    for (int i = 7; i < 20; ++i)
        ring.push_back(i);
    EXPECT_EQ(ring.capacity(), 32u);
    EXPECT_EQ(ring.size(), 18u);
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring[i], static_cast<int>(i) + 2);
}

TEST(TelemetryRing, PopReleasesOwnedMemory)
{
    Ring<std::vector<int>> ring;
    ring.push_back(std::vector<int>(1000, 7));
    ring.push_back(std::vector<int>(3, 1));
    ring.pop_front();
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.front(), std::vector<int>(3, 1));
    // The popped slot was reset: pushing reuses it without carrying
    // the old buffer's contents.
    ring.push_back({});
    ring.push_back({});
    ring.push_back({});
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_TRUE(ring.back().empty());
}

TEST(TelemetryRing, TierDropsToEmptyAndRefills)
{
    RollupTier tier(60);
    ref::Tier expect(60);
    auto record = [&](TimeS t, double v) {
        tier.record(t, v);
        expect.record(t, v);
    };
    for (TimeS t = 0; t < 20 * 60; t += 30)
        record(t, static_cast<double>(t % 7));
    EXPECT_EQ(tier.bucketCount(), 20u);
    const std::size_t cap = tier.memoryBytes();

    tier.dropBefore(100000);
    expect.dropBefore(100000);
    EXPECT_TRUE(tier.empty());
    EXPECT_EQ(tier.frontStart(), 0);
    EXPECT_EQ(tier.integrateVs(0, 100000), 0.0);

    // Refill past the gap: the first new bucket opens fresh (nothing
    // left to close) and carries the last value across the gap.
    for (TimeS t = 200000; t < 200000 + 12 * 60; t += 45)
        record(t, static_cast<double>(t % 11) - 3.0);
    record(300000, 1.0); // close the last refilled bucket
    EXPECT_EQ(tier.bucketCount(), expect.count());
    EXPECT_EQ(tier.frontStart(), expect.frontStart());
    EXPECT_EQ(tier.memoryBytes(), cap); // the ring was reused
    for (TimeS a = 199000; a < 200000 + 13 * 60; a += 53)
        for (TimeS b : {a + 60, a + 333, TimeS{200000 + 12 * 60}}) {
            EXPECT_EQ(bitsOf(tier.integrateVs(a, b)),
                      bitsOf(expect.integrateVs(a, b)))
                << a << " " << b;
            EXPECT_EQ(bitsOf(tier.sumRange(a, b)),
                      bitsOf(expect.sumRange(a, b)));
            bool s1 = false, s2 = false;
            EXPECT_EQ(bitsOf(tier.maxRange(a, b, &s1)),
                      bitsOf(expect.maxRange(a, b, &s2)));
            EXPECT_EQ(s1, s2);
        }
}

} // namespace
} // namespace ecov::ts
