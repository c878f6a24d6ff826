/**
 * @file
 * Replayable fuzz traces. A trace is the complete recipe for one
 * differential run: which component it drives, the configuration
 * (as ordered key/value pairs, so serialization is byte-stable), and
 * the operation sequence. The on-disk form is a line-oriented text
 * file:
 *
 *     mosaic-fuzz-trace v1
 *     component vm
 *     cfg kind mosaic
 *     cfg frames 192
 *     ...
 *     op t 3 1047 1
 *     op u 3 1024 64
 *     end
 *
 * Everything the run needs is in the file — fill payloads and keys
 * are derived from the ops and the `pseed` cfg entry by pure mixing
 * functions, never from ambient randomness — so replaying a trace is
 * byte-deterministic across machines and thread counts.
 *
 * Op vocabulary (args are decimal unsigned integers):
 *   vm:       t asid vpn write | u asid vpn npages
 *   tlb:      l asid vpn       | c asid vpn (huge-mapped access)
 *             i asid vpn       | f asid     (flush the asid)
 * Harnesses may skip an op that is invalid in the current state
 * (e.g. a `c` op on a design with no huge-page policy); skipping is
 * deterministic, which keeps every subsequence of a trace itself a
 * valid trace — the property the delta-debugging shrinker relies on.
 */

#ifndef MOSAIC_ORACLE_TRACE_HH_
#define MOSAIC_ORACLE_TRACE_HH_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.hh"

namespace mosaic
{

/** One fuzz operation: a kind letter plus integer arguments. */
struct TraceOp
{
    static constexpr unsigned maxArgs = 5;

    char kind = '?';
    unsigned nargs = 0;
    std::array<std::uint64_t, maxArgs> args{};

    std::uint64_t
    arg(unsigned i) const
    {
        return i < nargs ? args[i] : 0;
    }

    bool operator==(const TraceOp &) const = default;
};

/** A complete differential-run recipe. */
struct Trace
{
    static constexpr const char *magic = "mosaic-fuzz-trace v1";

    /** "vm", "vm-shard", or "tlb" (a fuzzComponents trace
     *  component). */
    std::string component;

    /** Ordered configuration; order is part of the byte format. */
    std::vector<std::pair<std::string, std::string>> cfg;

    std::vector<TraceOp> ops;

    /** First cfg value for the key, or fallback. */
    std::string cfgValue(const std::string &key,
                         const std::string &fallback = "") const;

    /** cfgValue parsed as an unsigned integer. */
    std::uint64_t cfgUint(const std::string &key,
                          std::uint64_t fallback) const;

    void setCfg(const std::string &key, const std::string &value);
    void setCfgUint(const std::string &key, std::uint64_t value);
};

/** Serialize to the canonical text form (always ends in "end\n"). */
std::string serializeTrace(const Trace &trace);

/**
 * Parse the canonical text form. Trace text is external input, so
 * malformation is a recoverable error, never a panic:
 * InvalidArgument for a malformed line, DataLoss for a file cut off
 * before its "end" marker (truncation).
 */
Result<Trace> tryParseTrace(const std::string &text);

/**
 * InvalidArgument when a vm or vm-shard trace sets `cfg kind`,
 * `cfg policy` or `cfg sharing` to a value the vm harnesses do not
 * read (an absent key takes the harness default); Ok otherwise.
 * The message names the key and the value.
 */
Status checkTraceCfg(const Trace &trace);

/**
 * Read and parse a trace file: NotFound / IoError for file-system
 * failures, everything tryParseTrace reports (a file cut short is
 * DataLoss), InvalidArgument for a component no fuzz harness runs
 * (fuzzer.hh's fuzzComponents list), and checkTraceCfg's refusal.
 */
Result<Trace> tryReadTraceFile(const std::string &path);

/** Write the canonical form; IoError when the path can't be opened
 *  or the write fails. */
Status tryWriteTraceFile(const std::string &path, const Trace &trace);

/** Convenience wrappers over the try* forms for tools whose callers
 *  cannot continue without the trace: any error is fatal() (bad
 *  external input, not a library bug — so not panic()). */
Trace parseTrace(const std::string &text);
void writeTraceFile(const std::string &path, const Trace &trace);
Trace readTraceFile(const std::string &path);

} // namespace mosaic

#endif // MOSAIC_ORACLE_TRACE_HH_
