#include "workloads/trace_file.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "util/log.hh"

namespace mosaic
{

namespace
{

constexpr char magic[8] = {'M', 'O', 'S', 'A', 'I', 'C', 'T', 'R'};
constexpr std::uint32_t traceVersion = 1;
constexpr std::uint64_t writeFlag = std::uint64_t{1} << 63;

struct Header
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t reserved;
    std::uint64_t records;
};
static_assert(sizeof(Header) == 24);

} // namespace

TraceWriter::TraceWriter(Unchecked, const std::string &path)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path)
{
    if (!out_)
        return; // open() reports; the fatal ctor checks below
    // Placeholder header; finalized on close.
    Header header{};
    std::memcpy(header.magic, magic, sizeof(magic));
    header.version = traceVersion;
    header.records = 0;
    out_.write(reinterpret_cast<const char *>(&header), sizeof(header));
}

TraceWriter::TraceWriter(const std::string &path)
    : TraceWriter(Unchecked{}, path)
{
    if (!out_)
        fatal("trace: cannot open " + path + " for writing");
}

Result<std::unique_ptr<TraceWriter>>
TraceWriter::open(const std::string &path)
{
    std::unique_ptr<TraceWriter> writer(
        new TraceWriter(Unchecked{}, path));
    if (!writer->out_)
        return Status::ioError("trace: cannot open " + path +
                               " for writing");
    return writer;
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::access(Addr vaddr, bool write)
{
    ensure(!closed_, "trace: write after close");
    std::uint64_t record = vaddr & ~writeFlag;
    if (write)
        record |= writeFlag;
    out_.write(reinterpret_cast<const char *>(&record), sizeof(record));
    ++records_;
}

Status
TraceWriter::tryClose()
{
    if (closed_)
        return Status();
    closed_ = true;
    Header header{};
    std::memcpy(header.magic, magic, sizeof(magic));
    header.version = traceVersion;
    header.records = records_;
    out_.seekp(0);
    out_.write(reinterpret_cast<const char *>(&header), sizeof(header));
    out_.close();
    if (!out_)
        return Status::ioError("trace: failed to finalize " + path_);
    return Status();
}

void
TraceWriter::close()
{
    const Status status = tryClose();
    if (!status.ok())
        fatal(status.toString());
}

TraceReader::TraceReader(Unchecked, const std::string &path)
    : in_(path, std::ios::binary)
{
}

Status
TraceReader::validateHeader(const std::string &path)
{
    if (!in_)
        return Status::notFound("trace: cannot open " + path);
    Header header{};
    in_.read(reinterpret_cast<char *>(&header), sizeof(header));
    if (!in_ || std::memcmp(header.magic, magic, sizeof(magic)) != 0)
        return Status::dataLoss("trace: " + path +
                                " is not a mosaic trace");
    if (header.version != traceVersion)
        return Status::invalidArgument(
            "trace: unsupported version in " + path);
    records_ = header.records;
    return Status();
}

TraceReader::TraceReader(const std::string &path)
    : TraceReader(Unchecked{}, path)
{
    const Status status = validateHeader(path);
    if (!status.ok())
        fatal(status.toString());
}

Result<std::unique_ptr<TraceReader>>
TraceReader::open(const std::string &path)
{
    std::unique_ptr<TraceReader> reader(
        new TraceReader(Unchecked{}, path));
    const Status status = reader->validateHeader(path);
    if (!status.ok())
        return status;
    return reader;
}

std::uint64_t
TraceReader::replay(AccessSink &sink, std::uint64_t limit)
{
    const std::uint64_t want =
        limit == 0 ? records_ : std::min(limit, records_);

    constexpr std::size_t batch = 64 * 1024;
    std::vector<std::uint64_t> buffer(batch);
    std::uint64_t replayed = 0;
    while (replayed < want) {
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(batch, want - replayed));
        in_.read(reinterpret_cast<char *>(buffer.data()),
                 static_cast<std::streamsize>(take * 8));
        const auto got = static_cast<std::size_t>(in_.gcount() / 8);
        for (std::size_t i = 0; i < got; ++i) {
            sink.access(buffer[i] & ~writeFlag,
                        (buffer[i] & writeFlag) != 0);
        }
        replayed += got;
        if (got < take) {
            // The header promised more records than the file holds:
            // a truncated or torn file, not a normal end of replay.
            truncated_ = true;
            break;
        }
    }
    return replayed;
}

} // namespace mosaic
