/**
 * @file
 * Minimal logging and error-reporting facility in the gem5 spirit.
 *
 * - warn():   something questionable happened but execution continues.
 * - fatal():  unrecoverable *user* error (bad configuration); throws
 *             FatalError so tests can assert on misuse.
 * - panic():  internal invariant violation (a library bug); aborts.
 */

#ifndef ECOV_UTIL_LOGGING_H
#define ECOV_UTIL_LOGGING_H

#include <stdexcept>
#include <string>

namespace ecov {

/** Exception thrown by fatal() for invalid user configuration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Print a warning message to stderr (always). */
void warn(const std::string &msg);

/** Report an unrecoverable user error by throwing FatalError. */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal invariant violation; aborts the process. */
[[noreturn]] void panic(const std::string &msg);

} // namespace ecov

#endif // ECOV_UTIL_LOGGING_H
