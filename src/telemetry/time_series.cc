#include "telemetry/time_series.h"

#include <algorithm>

#include "util/logging.h"

namespace ecov::ts {

namespace {

/** Seal cuts are minute-aligned so tiers tile on bucket seams. */
constexpr TimeS kCutAlignS = 60;

} // namespace

void
TimeSeries::setRetention(const RetentionConfig &config)
{
    if (total_appends_ > 0)
        fatal("TimeSeries::setRetention: series already holds samples "
              "(retention must be configured before the first append)");
    retention_ = config;
    if (retention_.seal_batch == 0)
        retention_.seal_batch = 1;
    // Tiers must nest: cold inside minute inside hour coverage,
    // otherwise queries would hit a gap between exact and rolled-up
    // history.
    if (retention_.cold_keep < 1.0)
        retention_.cold_keep = 1.0;
    if (retention_.minute_keep < retention_.cold_keep)
        retention_.minute_keep = retention_.cold_keep;
    if (retention_.hour_keep < retention_.minute_keep)
        retention_.hour_keep = retention_.minute_keep;
    bounded_ = retention_.bounded();
}

void
TimeSeries::append(TimeS time_s, double value)
{
    store_.append(time_s, value);
    ++total_appends_;
    if (!bounded_)
        return;
    hour_.record(time_s, value);
    maybeSeal();
}

void
TimeSeries::maybeSeal()
{
    // First index the retention bound wants to keep (the tighter of
    // the count and window bounds). A pure function of the appended
    // data and the config — no wall clock, no allocator state — so
    // eviction is deterministic and thread-count independent.
    const std::size_t n = store_.size();
    std::size_t keep_from = 0;
    if (retention_.max_samples > 0 && n > retention_.max_samples)
        keep_from = n - retention_.max_samples;
    if (retention_.window_s > 0) {
        const std::size_t wfrom =
            lowerBound(store_.backTime() - retention_.window_s);
        if (wfrom > keep_from)
            keep_from = wfrom;
    }
    // Amortize: only seal once a whole batch has aged out.
    if (keep_from < retention_.seal_batch)
        return;
    // Cut on a minute boundary at (or before) the first keeper, so
    // block seams land on rollup-bucket seams.
    const TimeS cut = alignDown(store_.time(keep_from), kCutAlignS);
    const std::size_t seal_n = lowerBound(cut);
    if (seal_n == 0)
        return;
    sealPrefix(seal_n, cut);
}

void
TimeSeries::sealPrefix(std::size_t seal_n, TimeS cut)
{
    // Blocks tile: this block starts where the previous one ended
    // (or at the exact-coverage boundary / the aligned first sample
    // for the very first seal).
    const TimeS start_cut =
        !cold_.empty() ? cold_.back().end_cut_s
        : has_retired_
            ? exact_since_s_
            : alignDown(store_.frontTime(), kCutAlignS);
    cold_.push_back(sealBlock(store_, seal_n, start_cut, cut));
    cold_samples_ += seal_n;
    // The minute tier holds sealed history only. Folding the span in
    // sample order runs the same record() arithmetic a per-append
    // tier would have; the cut is minute-aligned and every kept
    // sample lies at or past it, so the next record() would close the
    // last folded bucket exactly as close() does now. Queries never
    // read a minute bucket at or past the cut.
    for (std::size_t i = 0; i < seal_n; ++i)
        minute_.record(store_.time(i), store_.value(i));
    minute_.close();
    store_.erasePrefix(seal_n);
    // The ring base moved: outstanding index cursors are stale now.
    ++epoch_;
    retireCold();
    dropRollups();
}

void
TimeSeries::retireCold()
{
    const TimeS newest = store_.backTime();
    while (!cold_.empty()) {
        const SealedBlock &front = cold_.front();
        bool retire;
        if (retention_.window_s > 0) {
            const TimeS keep_behind = static_cast<TimeS>(
                retention_.cold_keep *
                static_cast<double>(retention_.window_s));
            retire = front.end_cut_s <= newest - keep_behind;
        } else {
            retire = cold_samples_ >
                     static_cast<std::size_t>(
                         retention_.cold_keep *
                         static_cast<double>(retention_.max_samples));
        }
        if (!retire)
            return;
        // The block's end cut becomes the exact-coverage boundary;
        // its closing value is the step carry for queries starting
        // exactly at that boundary.
        has_retired_ = true;
        exact_since_s_ = front.end_cut_s;
        value_before_exact_ = front.last_value;
        cold_samples_ -= front.count;
        cold_.pop_front();
    }
}

void
TimeSeries::dropRollups()
{
    const TimeS newest = store_.backTime();
    // Effective window for the keep multipliers: the configured
    // window, or the observed hot span under a pure count bound.
    TimeS w_eff = retention_.window_s;
    if (w_eff <= 0)
        w_eff = std::max<TimeS>(
            newest - store_.frontTime(), kCutAlignS);
    // Hour-aligned drops for both tiers keep the hour->minute seam
    // clean: a surviving minute front never splits an hour bucket
    // that was itself dropped.
    minute_.dropBefore(alignDown(
        newest - static_cast<TimeS>(retention_.minute_keep *
                                    static_cast<double>(w_eff)),
        3600));
    hour_.dropBefore(alignDown(
        newest - static_cast<TimeS>(retention_.hour_keep *
                                    static_cast<double>(w_eff)),
        3600));
}

void
TimeSeries::reserve(std::size_t n)
{
    // Once a span has been sealed the ring is at its steady retention
    // size; re-reserving the full horizon would defeat the bound.
    if (!cold_.empty() || has_retired_)
        return;
    if (bounded_) {
        const std::size_t bound =
            (retention_.max_samples > 0
                 ? retention_.max_samples
                 : static_cast<std::size_t>(retention_.window_s) +
                       1) +
            retention_.seal_batch;
        n = std::min(n, bound);
    }
    store_.reserve(n);
}

std::size_t
TimeSeries::lowerBound(TimeS t) const
{
    return store_.lowerBound(t);
}

std::size_t
TimeSeries::lowerBound(TimeS t, std::size_t hint) const
{
    return store_.lowerBound(t, hint);
}

double
TimeSeries::hotIntegrateWh(TimeS t1, TimeS t2, Cursor *cursor) const
{
    double acc = 0.0;
    TimeS cursor_t = t1;
    // Walk sample boundaries inside (t1, t2). The hint is honored
    // only when its epoch matches the ring's — a cursor from before
    // an eviction batch self-resets to a full search instead of
    // pointing at the wrong sample.
    std::size_t idx = (cursor && cursor->epoch == epoch_)
                          ? lowerBound(t1, cursor->index)
                          : lowerBound(t1);
    if (cursor) {
        cursor->index = idx;
        cursor->epoch = epoch_;
    }
    // Value in effect at t1: the previous sample's (or 0 before the
    // first), read straight from the index the search already found.
    const std::size_t n = store_.size();
    double current = idx > 0 ? store_.value(idx - 1) : 0.0;
    if (idx < n && store_.time(idx) == t1) {
        current = store_.value(idx);
        ++idx;
    }
    for (; idx < n; ++idx) {
        const TimeS t = store_.time(idx);
        if (t >= t2)
            break;
        acc += current * static_cast<double>(t - cursor_t);
        cursor_t = t;
        current = store_.value(idx);
    }
    acc += current * static_cast<double>(t2 - cursor_t);
    return acc / kSecondsPerHour;
}

double
TimeSeries::integrateWh(TimeS t1, TimeS t2, Cursor *cursor) const
{
    if (t2 <= t1 || store_.empty())
        return 0.0;
    // Window entirely inside the hot ring (or nothing ever evicted):
    // the legacy flat scan, bit-identical to the unbounded series.
    if ((cold_.empty() && !has_retired_) || t1 >= store_.frontTime())
        return hotIntegrateWh(t1, t2, cursor);
    double acc_vs = 0.0;
    TimeS a = t1;
    if (has_retired_ && t1 < exact_since_s_) {
        const TimeS rb = std::min(t2, exact_since_s_);
        acc_vs += rollupIntegrateVs(t1, rb);
        a = rb;
    }
    if (a < t2)
        acc_vs += exactIntegrateVs(a, t2);
    if (cursor) {
        cursor->index = lowerBound(t1);
        cursor->epoch = epoch_;
    }
    return acc_vs / kSecondsPerHour;
}

double
TimeSeries::exactIntegrateVs(TimeS a, TimeS b) const
{
    // Replicates the flat-history walk op for op: `current` tracks
    // the step value, `acc` accumulates current * dt at each sample
    // boundary in (a, b), so results over the cold+hot coverage are
    // bit-identical to the unbounded series.
    double current = has_retired_ ? value_before_exact_ : 0.0;
    double acc = 0.0;
    TimeS cursor_t = a;
    bool at_start = true;
    bool stopped = false;

    auto consume = [&](const Sample &s) {
        if (s.time_s >= b) {
            stopped = true;
            return;
        }
        if (at_start && s.time_s == a) {
            // The flat walk's exact-hit branch: a sample exactly at
            // the window start replaces the carried-in value.
            current = s.value;
            at_start = false;
            return;
        }
        at_start = false;
        acc += current * static_cast<double>(s.time_s - cursor_t);
        cursor_t = s.time_s;
        current = s.value;
    };

    for (const SealedBlock &blk : cold_) {
        if (stopped)
            break;
        if (blk.last_time_s < a) {
            current = blk.last_value;
            continue;
        }
        BlockCursor bc(blk);
        Sample s;
        while (!stopped && bc.next(&s)) {
            if (s.time_s < a) {
                current = s.value;
                continue;
            }
            consume(s);
        }
    }
    if (!stopped) {
        std::size_t i = store_.lowerBound(a);
        if (i > 0)
            current = store_.value(i - 1);
        for (; i < store_.size() && !stopped; ++i)
            consume(store_[i]);
    }
    acc += current * static_cast<double>(b - cursor_t);
    return acc;
}

double
TimeSeries::hotSumRange(TimeS t1, TimeS t2, Cursor *cursor) const
{
    const std::size_t start = (cursor && cursor->epoch == epoch_)
                                  ? lowerBound(t1, cursor->index)
                                  : lowerBound(t1);
    if (cursor) {
        cursor->index = start;
        cursor->epoch = epoch_;
    }
    double acc = 0.0;
    for (std::size_t i = start;
         i < store_.size() && store_.time(i) < t2; ++i)
        acc += store_.value(i);
    return acc;
}

double
TimeSeries::sumRange(TimeS t1, TimeS t2, Cursor *cursor) const
{
    if (store_.empty() || (cold_.empty() && !has_retired_) ||
        t1 >= store_.frontTime())
        return hotSumRange(t1, t2, cursor);
    double acc = 0.0;
    if (has_retired_ && t1 < exact_since_s_)
        acc += rollupSumRange(t1, std::min(t2, exact_since_s_));
    const TimeS a =
        has_retired_ ? std::max(t1, exact_since_s_) : t1;
    if (a < t2)
        acc += exactSumRange(a, t2);
    if (cursor) {
        cursor->index = lowerBound(t1);
        cursor->epoch = epoch_;
    }
    return acc;
}

double
TimeSeries::exactSumRange(TimeS a, TimeS b) const
{
    double acc = 0.0;
    for (const SealedBlock &blk : cold_) {
        if (blk.last_time_s < a)
            continue;
        if (blk.first_time_s >= b)
            return acc;
        BlockCursor bc(blk);
        Sample s;
        while (bc.next(&s)) {
            if (s.time_s < a)
                continue;
            if (s.time_s >= b)
                return acc;
            acc += s.value;
        }
    }
    for (std::size_t i = store_.lowerBound(a);
         i < store_.size() && store_.time(i) < b; ++i)
        acc += store_.value(i);
    return acc;
}

double
TimeSeries::maxRange(TimeS t1, TimeS t2) const
{
    bool seen = false;
    if (store_.empty() || (cold_.empty() && !has_retired_) ||
        t1 >= store_.frontTime())
        return hotMaxRange(t1, t2, &seen, 0.0);
    double best = 0.0;
    if (has_retired_ && t1 < exact_since_s_)
        best = rollupMaxRange(t1, std::min(t2, exact_since_s_),
                              &seen);
    const TimeS a =
        has_retired_ ? std::max(t1, exact_since_s_) : t1;
    if (a < t2)
        best = exactMaxRange(a, t2, &seen, best);
    return seen ? best : 0.0;
}

double
TimeSeries::exactMaxRange(TimeS a, TimeS b, bool *seen,
                          double best) const
{
    for (const SealedBlock &blk : cold_) {
        if (blk.last_time_s < a)
            continue;
        if (blk.first_time_s >= b)
            return best;
        BlockCursor bc(blk);
        Sample s;
        while (bc.next(&s)) {
            if (s.time_s < a)
                continue;
            if (s.time_s >= b)
                return best;
            if (!*seen || s.value > best) {
                best = s.value;
                *seen = true;
            }
        }
    }
    return hotMaxRange(a, b, seen, best);
}

double
TimeSeries::hotMaxRange(TimeS a, TimeS b, bool *seen, double best) const
{
    for (std::size_t i = store_.lowerBound(a);
         i < store_.size() && store_.time(i) < b; ++i) {
        const double v = store_.value(i);
        if (!*seen || v > best) {
            best = v;
            *seen = true;
        }
    }
    return best;
}

TimeS
TimeSeries::minuteFront() const
{
    // The minute tier's oldest bucket; once drops have emptied it,
    // the first hot sample's minute, which is where a tier fed on
    // every append would begin (its sealed buckets all dropped, its
    // hot ones never are: drop cuts lie at or behind the seal cut).
    return minute_.empty()
               ? alignDown(store_.frontTime(), kCutAlignS)
               : minute_.frontStart();
}

double
TimeSeries::rollupIntegrateVs(TimeS a, TimeS b) const
{
    // Compose tiers: the minute tier answers from its front on, the
    // hour tier answers the span before that. The hand-off is
    // hour-aligned (dropRollups guarantees clean seams); a seam slice
    // that neither tier retains reads as 0 — dropped history is
    // clamped, never extrapolated.
    const TimeS mstart = minuteFront();
    if (a >= mstart)
        return minute_.integrateVs(a, b);
    const TimeS hb = std::min(b, alignDown(mstart, 3600));
    double acc = hb > a ? hour_.integrateVs(a, hb) : 0.0;
    if (b > mstart)
        acc += minute_.integrateVs(mstart, b);
    return acc;
}

double
TimeSeries::rollupSumRange(TimeS a, TimeS b) const
{
    const TimeS mstart = minuteFront();
    if (a >= mstart)
        return minute_.sumRange(a, b);
    double acc =
        hour_.sumRange(a, std::min(b, alignDown(mstart, 3600)));
    if (b > mstart)
        acc += minute_.sumRange(mstart, b);
    return acc;
}

double
TimeSeries::rollupMaxRange(TimeS a, TimeS b, bool *seen) const
{
    const TimeS mstart = minuteFront();
    if (a >= mstart)
        return minute_.maxRange(a, b, seen);
    double best =
        hour_.maxRange(a, std::min(b, alignDown(mstart, 3600)), seen);
    if (b > mstart) {
        bool mseen = false;
        const double m = minute_.maxRange(mstart, b, &mseen);
        if (mseen && (!*seen || m > best)) {
            best = m;
            *seen = true;
        }
    }
    return best;
}

std::size_t
TimeSeries::memoryBytes() const
{
    std::size_t bytes = sizeof(TimeSeries) + store_.heapBytes() +
                        cold_.capacity() * sizeof(SealedBlock);
    for (const SealedBlock &blk : cold_)
        bytes += blk.payload.capacity();
    bytes += minute_.memoryBytes() + hour_.memoryBytes();
    return bytes;
}

} // namespace ecov::ts
