/**
 * @file
 * Structured error model for the ecovisor API.
 *
 * The paper's prototype treats every misuse of the Table 1 surface as
 * fatal: an unknown app name throws from deep inside the supervisor.
 * That is acceptable for figure reproduction but rules out untrusted
 * tenants — a control surface must survive bad tenant input rather
 * than crash (the orchestrator-separation idiom). The surface
 * therefore returns `Status` from every mutating call and `Result<T>`
 * from every query: structured errors the caller can inspect, log, or
 * turn into a FatalError via orFatal()/value() when misuse is a
 * programming error (figure scenarios, library layers).
 *
 * Design notes:
 *  - Status is cheap on the success path: a code and an empty
 *    (SSO, non-allocating) message string.
 *  - Result<T> is an expected-style carrier; C++20 has no
 *    std::expected, so this is the minimal hand-rolled equivalent.
 *  - orFatal()/value() throw ecov::FatalError carrying the status
 *    message.
 */

#ifndef ECOV_API_STATUS_H
#define ECOV_API_STATUS_H

#include <optional>
#include <string>
#include <utility>

namespace ecov::api {

/** Machine-inspectable category for an API failure. */
enum class ErrorCode
{
    Ok = 0,
    InvalidArgument,  ///< bad value (negative rate, NaN cap, ...)
    InvalidHandle,    ///< default-constructed or out-of-range handle
    UnknownApp,       ///< name does not resolve to a registered app
    DuplicateApp,     ///< tryAddApp with an already-registered name
    UnknownContainer, ///< container id not live in the COP
    ShareViolation,   ///< aggregate share validation failed (§3.3)
    NoBattery,        ///< battery operation on a battery-less share
    NoSolar,          ///< solar share without a physical array
    ResourceExhausted, ///< admission control: queue/inflight budget hit
    Unavailable,      ///< endpoint shutting down / connection gone
    DeadlineExceeded, ///< per-call deadline elapsed before a reply
    DataLoss,         ///< durable state failed its checksum (ckpt/WAL)
};

/** Stable identifier string for an ErrorCode ("unknown_app", ...). */
const char *errorCodeName(ErrorCode code);

/**
 * The outcome of an API call that returns no value.
 */
class Status
{
  public:
    /** Success. */
    Status() = default;

    /** Success, explicitly. */
    static Status okStatus() { return Status(); }

    /** Failure with a category and a human-readable message. */
    static Status
    error(ErrorCode code, std::string message)
    {
        return Status(code, std::move(message));
    }

    /** True on success. */
    bool ok() const { return code_ == ErrorCode::Ok; }

    /** The failure category (Ok on success). */
    ErrorCode code() const { return code_; }

    /** Human-readable message (empty on success). */
    const std::string &message() const { return message_; }

    /**
     * Throw FatalError(message) on failure. Returns *this for
     * chaining.
     */
    const Status &orFatal() const;

    explicit operator bool() const { return ok(); }

  private:
    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/**
 * Expected-style carrier: either a value or an error Status.
 */
template <typename T>
class Result
{
  public:
    /** Success. */
    Result(T value) : value_(std::move(value)) {}

    /** Failure. An Ok status carries no value, so constructing from
     *  one is a caller bug — downgraded to a structured error here
     *  rather than leaving value() to dereference an empty optional. */
    Result(Status status) : status_(std::move(status))
    {
        if (status_.ok())
            status_ = Status::error(ErrorCode::InvalidArgument,
                                    "Result: constructed from an Ok "
                                    "status without a value");
    }

    /** True when a value is present. */
    bool ok() const { return value_.has_value(); }

    /** The carried status (Ok when a value is present). */
    const Status &status() const { return status_; }

    /** The failure category (Ok on success). */
    ErrorCode code() const { return status_.code(); }

    /**
     * The value; throws FatalError(status().message()) when absent —
     * mirroring Status::orFatal().
     */
    const T &value() const
    {
        status_.orFatal();
        return *value_;
    }
    T &value()
    {
        status_.orFatal();
        return *value_;
    }

    /** The value, or `fallback` on error. */
    T valueOr(T fallback) const
    {
        return value_ ? *value_ : std::move(fallback);
    }

    explicit operator bool() const { return ok(); }

  private:
    Status status_;
    std::optional<T> value_;
};

} // namespace ecov::api

#endif // ECOV_API_STATUS_H
