/**
 * @file
 * Re-execute a fuzz trace file byte-deterministically.
 *
 * Usage:
 *   mosaic_replay TRACE...          re-run each trace, report result
 *   mosaic_replay --digest TRACE... print only "digest opsApplied"
 *                                   per trace (for determinism
 *                                   comparisons across hosts or
 *                                   MOSAIC_THREADS settings)
 *   mosaic_replay --batch=N TRACE.. additionally run the batched-
 *                                   pipeline shadow at block size N
 *                                   (at most 4096 used; DESIGN.md
 *                                   §13); a scalar /
 *                                   batched mismatch reports as a
 *                                   divergence while digests stay
 *                                   identical to the scalar run.
 *
 * Exit status (each condition distinct, so CI logs are actionable):
 *   0  every trace replayed cleanly
 *   1  divergence detected (op index printed to stderr); takes
 *      precedence when some traces also failed to load
 *   2  usage error (bad flag / no traces given)
 *   3  a trace was unreadable or malformed (NOT_FOUND / DATA_LOSS /
 *      ... printed to stderr) and no trace diverged
 *
 * An unreadable or malformed trace is reported with its structured
 * status and the remaining traces still run.
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "oracle/fuzzer.hh"
#include "oracle/trace.hh"
#include "util/parse.hh"

using namespace mosaic;

namespace
{

/** Exit-code policy: divergence (1) outranks unreadable input (3). */
int
replayExitCode(bool any_diverged, bool any_unreadable)
{
    if (any_diverged)
        return 1;
    return any_unreadable ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool digestOnly = false;
    std::uint64_t batch = 0;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--digest") {
            digestOnly = true;
        } else if (arg.rfind("--batch=", 0) == 0) {
            const Result<std::uint64_t> parsed =
                parseUnsigned("--batch", arg.substr(8));
            if (!parsed.ok()) {
                std::cerr << "mosaic_replay: "
                          << parsed.status().toString() << "\n";
                return 2;
            }
            batch = parsed.value();
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        std::cerr << "usage: mosaic_replay [--digest] [--batch=N] "
                     "TRACE...\n";
        return 2;
    }

    bool anyDiverged = false;
    bool anyUnreadable = false;
    for (const std::string &path : paths) {
        const Result<Trace> read = tryReadTraceFile(path);
        if (!read.ok()) {
            // One bad file must not hide the results of the rest.
            std::cerr << path << ": " << read.status().toString()
                      << "\n";
            anyUnreadable = true;
            continue;
        }
        const FuzzResult result = runTrace(read.value(), batch);
        if (result.divergence) {
            anyDiverged = true;
            std::cerr << path << ": DIVERGED at op "
                      << result.divergence->opIndex << ": "
                      << result.divergence->message << "\n";
        }
        if (digestOnly) {
            std::cout << result.digest << " " << result.opsApplied
                      << "\n";
            continue;
        }
        if (!result.divergence) {
            std::cout << path << ": ok, " << result.opsApplied
                      << " ops, digest " << result.digest << "\n";
        }
    }
    return replayExitCode(anyDiverged, anyUnreadable);
}
