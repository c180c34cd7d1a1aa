#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace ecoperf {

void
Samples::add(double v)
{
    const std::uint64_t index = count_++;
    sum_ += v;
    if (index % stride_ != 0)
        return;
    if (kept_.size() == cap_) {
        std::size_t j = 0;
        for (std::size_t i = 0; i < kept_.size(); i += 2)
            kept_[j++] = kept_[i];
        kept_.resize(j);
        stride_ *= 2;
        if (index % stride_ != 0)
            return;
    }
    kept_.push_back(v);
}

double
Samples::percentile(double p) const
{
    if (kept_.empty())
        return 0.0;
    std::vector<double> v = kept_;
    std::sort(v.begin(), v.end());
    // The clock counts whole nanoseconds, so many samples tie. Read
    // each value as spread evenly over its 1 ns bin and interpolate
    // the rank inside the bin; a plain order statistic would jump
    // from one whole nanosecond to the next.
    const double rank = std::clamp(p / 100.0, 0.0, 1.0) *
                        static_cast<double>(v.size());
    const std::size_t at =
        std::min(v.size() - 1, static_cast<std::size_t>(rank));
    const double x = v[at];
    const auto lo = std::lower_bound(v.begin(), v.end(), x) - v.begin();
    const auto hi = std::upper_bound(v.begin(), v.end(), x) - v.begin();
    return x - 0.5 +
           (rank - static_cast<double>(lo)) / static_cast<double>(hi - lo);
}

void
Samples::clear()
{
    stride_ = 1;
    count_ = 0;
    sum_ = 0.0;
    kept_.clear();
}

const char *
spanName(Span s)
{
    switch (s) {
    case Span::SimStep: return "sim.step";
    case Span::CoreSettle: return "core.settle";
    case Span::CoreUpcalls: return "core.upcalls";
    case Span::CopChurn: return "cop.churn";
    case Span::CopSetDemand: return "cop.set_demand";
    case Span::ApiSnapshot: return "api.snapshot";
    case Span::ApiCapBatch: return "api.cap_batch";
    case Span::TelemetryQuery: return "telemetry.query";
    case Span::NetClientEncode: return "net.client.encode";
    case Span::NetServerIngest: return "net.server.ingest";
    case Span::NetServerCommit: return "net.server.commit";
    case Span::NetClientAwait: return "net.client.await";
    case Span::CkptWalAppend: return "ckpt.wal_append";
    case Span::CkptSnapshot: return "ckpt.snapshot";
    case Span::CkptRecover: return "ckpt.recover";
    case Span::NetSocketConnect: return "net.socket.connect";
    case Span::NetClientSend: return "net.client.send";
    case Span::LoadGenLag: return "load.gen_lag";
    case Span::kCount: break;
    }
    return "?";
}

const char *
countName(Count c)
{
    switch (c) {
    case Count::ApiCapBatchFailed: return "api.cap_batch.failed";
    case Count::NetServerFrames: return "net.server.frames";
    case Count::NetServerCommitted: return "net.server.committed";
    case Count::NetServerRejected: return "net.server.rejected";
    case Count::NetServerBatchOps: return "net.server.batch_ops";
    case Count::CkptWalBytesPerTick: return "ckpt.wal_bytes_per_tick";
    case Count::CkptSnapshotBytes: return "ckpt.snapshot_bytes";
    case Count::CkptRecoverReplayedTicks:
        return "ckpt.recover.replayed_ticks";
    case Count::SimTicks: return "sim.ticks";
    case Count::TraceOverheadFrac: return "trace.overhead_frac";
    case Count::kCount: break;
    }
    return "?";
}

const char *
countUnit(Count c)
{
    switch (c) {
    case Count::NetServerBatchOps: return "ops/commit";
    case Count::CkptWalBytesPerTick: return "B/tick";
    case Count::CkptSnapshotBytes: return "B";
    case Count::CkptRecoverReplayedTicks:
    case Count::SimTicks: return "ticks";
    case Count::TraceOverheadFrac: return "fraction";
    default: return "count";
    }
}

Tracer::Tracer()
{
    // Spans are many and short: a smaller buffer each keeps a traced
    // run's memory near an untraced one's.
    for (Samples &s : spans_)
        s = Samples(std::size_t{1} << 18);
}

void
Tracer::keepLog(std::size_t cap)
{
    log_cap_ = cap;
    log_.reserve(cap);
}

bool
Tracer::writeLog(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "span,id,start_ns,dur_ns\n");
    for (const Record &r : log_)
        std::fprintf(f, "%s,%llu,%lld,%lld\n", spanName(r.span),
                     static_cast<unsigned long long>(r.id),
                     static_cast<long long>(r.start_ns),
                     static_cast<long long>(r.dur_ns));
    return std::fclose(f) == 0;
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

} // namespace ecoperf
