/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — an internal invariant was violated (a bug in this
 *            library); aborts so a debugger or core dump catches it.
 * fatal()  — the user asked for something impossible (bad
 *            configuration); exits with an error code.
 * warn()   — something questionable happened but simulation can
 *            continue.
 */

#ifndef MOSAIC_UTIL_LOG_HH_
#define MOSAIC_UTIL_LOG_HH_

#include <cstdio>
#include <cstdlib>
#include <string>

namespace mosaic
{

[[noreturn]] inline void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

/**
 * Exits with code 1 from any thread. Static destructors do not run:
 * std::exit on a ThreadPool::shared() worker would run the pool's
 * destructor, which joins the calling thread and aborts. Flushing
 * every stdio stream first keeps the output printed so far.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::fflush(nullptr);
    std::_Exit(1);
}

inline void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

inline void
inform(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

/** Assert an invariant with a message; active in all build types. */
inline void
ensure(bool condition, const char *msg)
{
    if (!condition)
        panic(msg);
}

} // namespace mosaic

#endif // MOSAIC_UTIL_LOG_HH_
