/**
 * @file
 * One remote tenant connection as the rpc_durable and daemon_tcp
 * workloads drive it: a net::Client over a send-timing Transport
 * decorator, with spans around encode, send and await.
 */

#ifndef ECOPERF_REMOTE_H
#define ECOPERF_REMOTE_H

#include <memory>

#include "net/client.h"
#include "net/transport.h"
#include "trace.h"

namespace ecoperf {

/**
 * Times each send as one `span`: for the loopback that is
 * ServerCore::onBytes (server ingest), for a socket the write.
 */
class TimedTransport : public ecov::net::Transport
{
  public:
    TimedTransport(ecov::net::Transport *inner, Span span)
        : inner_(inner), span_(span)
    {}

    ecov::api::Status
    send(const std::uint8_t *data, std::size_t n) override
    {
        if (!tracer().on())
            return inner_->send(data, n);
        const std::int64_t t0 = nowNs();
        ecov::api::Status st = inner_->send(data, n);
        last_send_ns = nowNs() - t0;
        tracer().add(span_, t0, last_send_ns, id);
        return st;
    }

    ecov::api::Status
    receiveSome(std::vector<std::uint8_t> &buf) override
    {
        return inner_->receiveSome(buf);
    }

    ecov::api::Status
    receiveSome(std::vector<std::uint8_t> &buf, int timeout_ms) override
    {
        return inner_->receiveSome(buf, timeout_ms);
    }

    /** Span id of the next send; duration of the last traced one. */
    std::uint64_t id = 0;
    std::int64_t last_send_ns = 0;

  private:
    ecov::net::Transport *inner_;
    Span span_;
};

/** A client connection; `index` keys its spans' request ids. */
class Remote
{
  public:
    Remote(std::unique_ptr<ecov::net::Transport> inner, Span send_span,
           std::uint32_t index)
        : inner_(std::move(inner)), timed_(inner_.get(), send_span),
          client_(&timed_), index_(index)
    {}
    Remote(const Remote &) = delete;
    Remote &operator=(const Remote &) = delete;

    ecov::net::Client &client() { return client_; }

    /** Span id of request `req` on this connection. */
    std::uint64_t
    spanId(std::uint32_t req) const
    {
        return (static_cast<std::uint64_t>(index_) << 32) | req;
    }

    /**
     * Run one Client::sendX call; its time minus the transport send
     * is the encode span.
     */
    template <typename SendFn>
    std::uint32_t
    send(SendFn &&fn)
    {
        if (!tracer().on())
            return fn(client_);
        // Request ids are assigned 1, 2, ... per connection.
        timed_.id = spanId(
            static_cast<std::uint32_t>(client_.requestsSent() + 1));
        timed_.last_send_ns = 0;
        const std::int64_t t0 = nowNs();
        const std::uint32_t req = fn(client_);
        tracer().add(Span::NetClientEncode, t0,
                     nowNs() - t0 - timed_.last_send_ns, spanId(req));
        return req;
    }

    /** Run one Client::awaitX call under the await span. */
    template <typename AwaitFn>
    auto
    await(std::uint32_t req, AwaitFn &&fn)
    {
        SpanScope span(Span::NetClientAwait);
        span.id = spanId(req);
        return fn(client_, req);
    }

  private:
    std::unique_ptr<ecov::net::Transport> inner_;
    TimedTransport timed_;
    ecov::net::Client client_;
    std::uint32_t index_;
};

} // namespace ecoperf

#endif // ECOPERF_REMOTE_H
