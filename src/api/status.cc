#include "api/status.h"

#include "util/logging.h"

namespace ecov::api {

const Status &
Status::orFatal() const
{
    if (!ok())
        fatal(message_);
    return *this;
}

} // namespace ecov::api
