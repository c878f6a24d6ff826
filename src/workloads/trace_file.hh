/**
 * @file
 * Binary reference-trace files: record a workload's access stream
 * once, replay it many times (e.g. to sweep TLB configurations
 * without re-executing the workload, as trace-driven studies do).
 *
 * Format: a 24-byte header ("MOSAICTR", version, a reserved word,
 * record count), then one 8-byte record per access — the virtual
 * address in the low 63 bits and the write flag in the top bit.
 * Addresses in this simulator fit 48 bits, so nothing is lost.
 *
 * Trace files are external input (DESIGN.md §11): the open() factory
 * functions report unusable files as Status values so callers can
 * record or retry, while the path constructors remain fatal() for
 * tools whose callers cannot continue without the file. A replay
 * that hits early EOF no longer ends silently: truncated() reports
 * it.
 */

#ifndef MOSAIC_WORKLOADS_TRACE_FILE_HH_
#define MOSAIC_WORKLOADS_TRACE_FILE_HH_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "util/status.hh"
#include "workloads/access_sink.hh"

namespace mosaic
{

/** An AccessSink that streams records into a trace file. */
class TraceWriter : public AccessSink
{
  public:
    /** Open (and truncate) the file; fatal on failure. */
    explicit TraceWriter(const std::string &path);

    /** Open (and truncate) the file; IoError on failure instead of
     *  exiting, for callers that can degrade or retry. */
    static Result<std::unique_ptr<TraceWriter>>
    open(const std::string &path);

    /** Finalizes the header. */
    ~TraceWriter() override;

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void access(Addr vaddr, bool write) override;

    /** Records written so far. */
    std::uint64_t records() const { return records_; }

    /** Flush buffers and finalize the header early. */
    void close();

    /** Like close(), but reports a failed finalize as IoError
     *  instead of exiting. Idempotent. */
    Status tryClose();

  private:
    struct Unchecked
    {
    };
    TraceWriter(Unchecked, const std::string &path);

    std::ofstream out_;
    std::string path_;
    std::uint64_t records_ = 0;
    bool closed_ = false;
};

/** Reads a trace file and replays it into a sink. */
class TraceReader
{
  public:
    /** Open and validate the header; fatal on a bad file. */
    explicit TraceReader(const std::string &path);

    /**
     * Open and validate the header, reporting failure as a Status:
     * NotFound when the path can't be opened, DataLoss for a short
     * or foreign header, InvalidArgument for an unsupported version.
     */
    static Result<std::unique_ptr<TraceReader>>
    open(const std::string &path);

    /** Records the header claims. */
    std::uint64_t records() const { return records_; }

    /**
     * Replay up to @p limit records (0 = all) into the sink.
     * @return records actually replayed.
     */
    std::uint64_t replay(AccessSink &sink, std::uint64_t limit = 0);

    /** True when a replay hit end-of-file before the record count
     *  the header promised (a truncated or torn file). */
    bool truncated() const { return truncated_; }

  private:
    struct Unchecked
    {
    };
    TraceReader(Unchecked, const std::string &path);

    /** Validate the just-opened stream; Ok when usable. */
    Status validateHeader(const std::string &path);

    std::ifstream in_;
    std::uint64_t records_ = 0;
    bool truncated_ = false;
};

} // namespace mosaic

#endif // MOSAIC_WORKLOADS_TRACE_FILE_HH_
