/**
 * @file
 * The per-session request log (write-ahead log) behind mosaicd's
 * crash recovery (DESIGN.md §16).
 *
 * Format: a two-line text header (magic + fingerprint, the shared
 * checkpoint convention of fault/checkpoint.hh) followed by fixed-
 * size binary records:
 *
 *     u8  kind    u8 write    u16 reserved (0)
 *     u64 seq     u64 vaddr
 *     u32 fnv1a-32 over the 20 payload bytes
 *
 * Every record is checksummed individually so a reader can tell a
 * cleanly-ended log from one torn mid-record by a crash: reading
 * stops at the first short or checksum-failing record and reports
 * how many bytes of durable prefix precede it. A torn tail is NOT
 * data loss — it is a request whose acceptance never reached the
 * client (mosaicd acks only after flush), so recovery discards it
 * and the client's retry resubmits.
 *
 * The writer stores records into a MAP_SHARED window of the file.
 * A store that has retired is in the page cache, so it survives
 * process death exactly as a write(2) would, without a syscall per
 * record. Power loss is out of scope: nothing is fsynced. The file
 * is preallocated ahead of the writer in fixed steps, so a full
 * disk or a file-size limit surfaces as an IoError from append(),
 * never as a SIGBUS on a store. A process that dies leaves that
 * preallocation behind as a zero-filled tail, which the reader
 * treats as a clean end; close() trims it.
 *
 * The writer tracks its flushed offset explicitly, which is what
 * lets the chaos tests simulate a kill precisely: a simulated crash
 * truncates the file to the flushed offset, dropping exactly the
 * bytes the acceptance protocol may lose.
 */

#ifndef MOSAIC_CORE_REQUEST_LOG_HH_
#define MOSAIC_CORE_REQUEST_LOG_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hh"
#include "util/types.hh"

namespace mosaic
{

/** Record kinds; the log is open to non-translate control records. */
enum class LogRecordKind : std::uint8_t
{
    /** One translation request (vaddr + write flag). */
    Translate = 1,
};

/** One framed log record. */
struct LogRecord
{
    LogRecordKind kind = LogRecordKind::Translate;
    bool write = false;

    /** Per-session sequence number; dense from 0 in submit order. */
    std::uint64_t seq = 0;

    Addr vaddr = 0;

    bool operator==(const LogRecord &) const = default;
};

/** Serialized size of one record on disk. */
constexpr std::size_t logRecordBytes = 24;

/**
 * Append-only writer over a memory-mapped file, with an explicit
 * flushed-offset watermark.
 */
class RequestLogWriter
{
  public:
    RequestLogWriter() = default;
    ~RequestLogWriter();

    RequestLogWriter(const RequestLogWriter &) = delete;
    RequestLogWriter &operator=(const RequestLogWriter &) = delete;

    /**
     * Create (truncate) the log at @p path and write the header.
     * The header counts toward flushedBytes only after flush().
     */
    Status open(const std::string &path,
                const std::string &fingerprint);

    /**
     * Re-open an existing log for appending after @p durable_bytes
     * (recovery: the durable prefix was just replayed; appends
     * continue where it ended, dropping any torn tail).
     */
    Status openForAppend(const std::string &path,
                         std::uint64_t durable_bytes);

    /**
     * Append one record: an encode and a store into the mapped
     * window. IoError when the file cannot grow to hold it (full
     * disk, file-size limit); the log is then left as it was.
     */
    Status append(const LogRecord &record);

    /**
     * Advance the flushed watermark to everything appended. The
     * records are already in the page cache; this only marks them
     * as acknowledged (no syscall).
     */
    Status flush();

    /** Bytes guaranteed durable against process death. */
    std::uint64_t flushedBytes() const { return flushedBytes_; }

    /** Bytes appended (flushed or not). */
    std::uint64_t writtenBytes() const { return writtenBytes_; }

    bool isOpen() const { return fd_ >= 0; }

    /**
     * Simulated process death: unmap and truncate the file to the
     * flushed watermark, losing exactly the unflushed suffix.
     */
    void crash();

    /** Unmap, trim the preallocation to writtenBytes() and close. */
    void close();

  private:
    /** Preallocate and map the file up to at least @p end bytes. */
    Status grow(std::uint64_t end);

    /** Release the window and trim the file to @p size bytes. */
    void release(std::uint64_t size, const char *what);

    int fd_ = -1;
    std::string path_;

    /** The mapped window: file bytes [mapBase_, allocatedBytes_). */
    unsigned char *map_ = nullptr;
    std::uint64_t mapBase_ = 0;
    std::uint64_t allocatedBytes_ = 0;

    std::uint64_t writtenBytes_ = 0;
    std::uint64_t flushedBytes_ = 0;
};

/** The durable contents of one request log. */
struct RequestLogContents
{
    std::vector<LogRecord> records;

    /** Bytes of durable prefix (header + whole valid records). */
    std::uint64_t durableBytes = 0;

    /** True when a torn/corrupt tail was discarded after the
     *  durable prefix. An all-zero tail (the preallocation a dead
     *  writer leaves behind) is a clean end, not a torn one. */
    bool tornTail = false;
};

/**
 * Read a request log. NotFound when absent, DataLoss when the header
 * is foreign or the fingerprint mismatches (a log from a different
 * configuration must not replay), Ok otherwise — a torn tail is
 * reported in the result, not as an error (see file comment).
 */
Result<RequestLogContents> readRequestLog(
    const std::string &path, const std::string &fingerprint);

} // namespace mosaic

#endif // MOSAIC_CORE_REQUEST_LOG_HH_
