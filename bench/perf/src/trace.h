/**
 * @file
 * Timing primitives for ecoperf: a decimating sample buffer and the
 * span tracer behind the per-layer metrics.
 *
 * Every span is recorded from the benchmark's own code, around a call
 * into one layer's public functions (README.md lists them). Spans
 * cost one predictable branch while the tracer is off, which it is
 * for every end-to-end run.
 */

#ifndef ECOPERF_TRACE_H
#define ECOPERF_TRACE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ecoperf {

/** Monotonic nanoseconds (steady_clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Bounded buffer of durations in whole nanoseconds. It keeps every
 * sample until `cap` are held, then drops every other one and keeps
 * one in two from then on (and so on), so the kept set stays an even
 * spread over the whole run. count() and sum() cover every sample
 * offered.
 */
class Samples
{
  public:
    explicit Samples(std::size_t cap = std::size_t{1} << 21) : cap_(cap) {}

    void add(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    /** Percentile p in [0, 100] of the kept samples; 0 when empty. */
    double percentile(double p) const;

    void clear();

  private:
    std::size_t cap_;
    std::uint64_t stride_ = 1;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    std::vector<double> kept_;
};

/** Every span the benchmark records (README.md, "Per-layer metrics"). */
enum class Span : int
{
    SimStep,          ///< one Simulation::step()
    CoreSettle,       ///< Accounting phase, minus nested NetServerCommit
    CoreUpcalls,      ///< Policy phase: app tick() callbacks
    CopChurn,         ///< destroy + create of one container
    CopSetDemand,     ///< Cluster::setDemand
    ApiSnapshot,      ///< Ecovisor::getEnergySnapshot
    ApiCapBatch,      ///< Ecovisor::applyCapBatch
    TelemetryQuery,   ///< EcoLib interval query
    NetClientEncode,  ///< Client::sendX minus its transport send
    NetServerIngest,  ///< loopback send = ServerCore::onBytes
    NetServerCommit,  ///< ServerCore::commitCoalesced
    NetClientAwait,   ///< Client::awaitX
    CkptWalAppend,    ///< CheckpointManager::beginTick
    CkptSnapshot,     ///< CheckpointManager::endTick that snapshots
    CkptRecover,      ///< CheckpointManager::recover
    NetSocketConnect, ///< SocketTransport::connect
    NetClientSend,    ///< socket send
    LoadGenLag,       ///< how late a daemon_tcp round started
    kCount,
};

/** Counters reported beside the spans (0 where a workload has none). */
enum class Count : int
{
    ApiCapBatchFailed,
    NetServerFrames,
    NetServerCommitted,
    NetServerRejected,
    NetServerBatchOps,
    CkptWalBytesPerTick,
    CkptSnapshotBytes,
    CkptRecoverReplayedTicks,
    SimTicks,
    TraceOverheadFrac,
    kCount,
};

/** Metric name stem of a span / a counter's name and unit. */
const char *spanName(Span s);
const char *countName(Count c);
const char *countUnit(Count c);

/**
 * The span tracer. One process-wide instance (tracer()); single
 * threaded like every workload.
 */
class Tracer
{
  public:
    Tracer();

    bool on() const { return on_; }
    void setOn(bool on) { on_ = on; }

    /** Keep the first `cap` raw spans for writeLog(). */
    void keepLog(std::size_t cap);

    void
    add(Span s, std::int64_t start_ns, std::int64_t dur_ns,
        std::uint64_t id = 0)
    {
        spans_[static_cast<int>(s)].add(static_cast<double>(dur_ns));
        if (log_.size() < log_cap_)
            log_.push_back({s, id, start_ns, dur_ns});
    }

    void set(Count c, double v) { counts_[static_cast<int>(c)] = v; }
    double get(Count c) const { return counts_[static_cast<int>(c)]; }

    const Samples &span(Span s) const
    {
        return spans_[static_cast<int>(s)];
    }

    /** Raw spans as CSV (span,id,start_ns,dur_ns); false on I/O error. */
    bool writeLog(const std::string &path) const;

  private:
    struct Record
    {
        Span span;
        std::uint64_t id;
        std::int64_t start_ns;
        std::int64_t dur_ns;
    };

    bool on_ = false;
    std::array<Samples, static_cast<int>(Span::kCount)> spans_;
    std::array<double, static_cast<int>(Count::kCount)> counts_{};
    std::vector<Record> log_;
    std::size_t log_cap_ = 0;
};

Tracer &tracer();

/** Records one span over its scope while the tracer is on. */
class SpanScope
{
  public:
    explicit SpanScope(Span s)
        : span_(s), on_(tracer().on()), start_(on_ ? nowNs() : 0)
    {}
    ~SpanScope()
    {
        if (on_)
            tracer().add(span_, start_, nowNs() - start_, id);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Request or tick id the span is logged under. */
    std::uint64_t id = 0;

  private:
    Span span_;
    bool on_;
    std::int64_t start_;
};

} // namespace ecoperf

#endif // ECOPERF_TRACE_H
