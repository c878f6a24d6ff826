/**
 * @file
 * A lightweight error taxonomy for recoverable failures.
 *
 * The repo's error-handling contract (DESIGN.md §11):
 *  - panic()  — internal invariant violated: a bug in this library.
 *    Aborts. Never used for bad input or failed I/O.
 *  - fatal()  — unusable user configuration discovered at startup
 *    (bad MOSAIC_* value, impossible geometry). Exits.
 *  - Status / Result<T> — everything the outside world can get
 *    wrong at runtime: malformed trace files, unreadable or
 *    unwritable paths, injected I/O errors, crashed sweep cells.
 *    These are values, so callers decide whether to retry, record,
 *    degrade, or give up.
 *
 * Status is deliberately tiny (a code and a message) and header-only
 * so any layer can return one without new link dependencies.
 */

#ifndef MOSAIC_UTIL_STATUS_HH_
#define MOSAIC_UTIL_STATUS_HH_

#include <optional>
#include <string>
#include <utility>

#include "util/log.hh"

namespace mosaic
{

/** Broad failure categories, in the spirit of absl::StatusCode. */
enum class StatusCode
{
    Ok,

    /** The caller passed something malformed (parse errors). */
    InvalidArgument,

    /** A named resource (file, key, cell) does not exist. */
    NotFound,

    /** An I/O operation failed (open, read, write, flush). */
    IoError,

    /** Input exists but is corrupt or truncated. */
    DataLoss,

    /** A capacity limit was hit (allocation, table full). */
    ResourceExhausted,

    /** A deadline expired. */
    Timeout,

    /** A fault-injection site fired (always deliberate). */
    Injected,

    /** Wrapped internal error that was made recoverable. */
    Internal,
};

/** Stable upper-case name of a status code (for logs and JSON). */
constexpr const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok: return "OK";
      case StatusCode::InvalidArgument: return "INVALID_ARGUMENT";
      case StatusCode::NotFound: return "NOT_FOUND";
      case StatusCode::IoError: return "IO_ERROR";
      case StatusCode::DataLoss: return "DATA_LOSS";
      case StatusCode::ResourceExhausted: return "RESOURCE_EXHAUSTED";
      case StatusCode::Timeout: return "TIMEOUT";
      case StatusCode::Injected: return "INJECTED";
      case StatusCode::Internal: return "INTERNAL";
    }
    return "UNKNOWN";
}

/** The outcome of a fallible operation: Ok, or a code + message. */
class [[nodiscard]] Status
{
  public:
    /** Default: success. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status
    invalidArgument(std::string msg)
    {
        return {StatusCode::InvalidArgument, std::move(msg)};
    }
    static Status
    notFound(std::string msg)
    {
        return {StatusCode::NotFound, std::move(msg)};
    }
    static Status
    ioError(std::string msg)
    {
        return {StatusCode::IoError, std::move(msg)};
    }
    static Status
    dataLoss(std::string msg)
    {
        return {StatusCode::DataLoss, std::move(msg)};
    }
    static Status
    resourceExhausted(std::string msg)
    {
        return {StatusCode::ResourceExhausted, std::move(msg)};
    }
    static Status
    timeout(std::string msg)
    {
        return {StatusCode::Timeout, std::move(msg)};
    }
    static Status
    injected(std::string msg)
    {
        return {StatusCode::Injected, std::move(msg)};
    }
    static Status
    internal(std::string msg)
    {
        return {StatusCode::Internal, std::move(msg)};
    }

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "IO_ERROR: cannot open 'x'" — or "OK". */
    std::string
    toString() const
    {
        if (ok())
            return "OK";
        return std::string(statusCodeName(code_)) + ": " + message_;
    }

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/**
 * A value or the Status explaining why there is none.
 *
 * value() on an error Result is an internal invariant violation (the
 * caller skipped the ok() check) and panics; use status() to inspect
 * failures.
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    Result(T value) : value_(std::move(value)) {}

    Result(Status status) : status_(std::move(status))
    {
        ensure(!status_.ok(),
               "status: Result built from an OK status carries no value");
    }

    bool ok() const { return value_.has_value(); }

    const Status &status() const { return status_; }

    T &
    value()
    {
        ensure(ok(), "status: value() on an error Result");
        return *value_;
    }
    const T &
    value() const
    {
        ensure(ok(), "status: value() on an error Result");
        return *value_;
    }

    T
    valueOr(T fallback) const
    {
        return ok() ? *value_ : std::move(fallback);
    }

  private:
    std::optional<T> value_;
    Status status_; // Ok when value_ is engaged
};

} // namespace mosaic

#endif // MOSAIC_UTIL_STATUS_HH_
