#include "core/request_log.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>

namespace mosaic
{

namespace
{

constexpr const char *logMagic = "mosaic-request-log v1";

constexpr std::size_t payloadBytes = 20;

/** The file grows ahead of the writer in steps of this many bytes
 *  (a multiple of every page size the mapping may use). */
constexpr std::uint64_t growStepBytes = 64 * 1024;

std::uint32_t
fnv1a32(const unsigned char *data, std::size_t n)
{
    std::uint32_t h = 2166136261u;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 16777619u;
    }
    return h;
}

void
putU16(unsigned char *out, std::uint16_t v)
{
    out[0] = static_cast<unsigned char>(v);
    out[1] = static_cast<unsigned char>(v >> 8);
}

void
putU32(unsigned char *out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
putU64(unsigned char *out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t
getU32(const unsigned char *in)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= std::uint32_t{in[i]} << (8 * i);
    return v;
}

std::uint64_t
getU64(const unsigned char *in)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= std::uint64_t{in[i]} << (8 * i);
    return v;
}

std::array<unsigned char, logRecordBytes>
encodeRecord(const LogRecord &record)
{
    std::array<unsigned char, logRecordBytes> buf{};
    buf[0] = static_cast<unsigned char>(record.kind);
    buf[1] = record.write ? 1 : 0;
    putU16(&buf[2], 0);
    putU64(&buf[4], record.seq);
    putU64(&buf[12], record.vaddr);
    putU32(&buf[payloadBytes], fnv1a32(buf.data(), payloadBytes));
    return buf;
}

/** False when the checksum fails or the kind byte is unknown. */
bool
decodeRecord(const unsigned char *buf, LogRecord *out)
{
    if (getU32(buf + payloadBytes) != fnv1a32(buf, payloadBytes))
        return false;
    if (buf[0] != static_cast<unsigned char>(LogRecordKind::Translate))
        return false;
    out->kind = static_cast<LogRecordKind>(buf[0]);
    out->write = buf[1] != 0;
    out->seq = getU64(buf + 4);
    out->vaddr = getU64(buf + 12);
    return true;
}

} // namespace

RequestLogWriter::~RequestLogWriter()
{
    close();
}

Status
RequestLogWriter::grow(std::uint64_t end)
{
    const std::uint64_t target =
        (end + growStepBytes - 1) / growStepBytes * growStepBytes;
    // Reserve the blocks before any store can reach them: a store
    // into a hole the filesystem cannot fill would be a SIGBUS.
    const int err = ::posix_fallocate(
        fd_, static_cast<off_t>(allocatedBytes_),
        static_cast<off_t>(target - allocatedBytes_));
    if (err != 0) {
        return Status::ioError("cannot grow request log '" + path_ +
                               "' to " + std::to_string(target) +
                               " bytes (" + std::strerror(err) + ")");
    }
    const std::size_t length = target - mapBase_;
    void *window =
        map_ == nullptr
            ? ::mmap(nullptr, length, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd_, static_cast<off_t>(mapBase_))
            : ::mremap(map_, allocatedBytes_ - mapBase_, length,
                       MREMAP_MAYMOVE);
    if (window == MAP_FAILED) {
        return Status::ioError("cannot map request log '" + path_ +
                               "' (" + std::strerror(errno) + ")");
    }
    map_ = static_cast<unsigned char *>(window);
    allocatedBytes_ = target;
    return {};
}

void
RequestLogWriter::release(std::uint64_t size, const char *what)
{
    if (map_ != nullptr)
        ::munmap(map_, allocatedBytes_ - mapBase_);
    map_ = nullptr;
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
        warn("request log '" + path_ + "': " + what +
             " could not truncate to " + std::to_string(size) +
             " bytes (" + std::strerror(errno) + ")");
    }
    ::close(fd_);
    fd_ = -1;
}

Status
RequestLogWriter::open(const std::string &path,
                       const std::string &fingerprint)
{
    close();
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        return Status::ioError("cannot open request log '" + path +
                               "' for writing");
    path_ = path;
    mapBase_ = 0;
    allocatedBytes_ = 0;
    writtenBytes_ = 0;
    flushedBytes_ = 0;
    const std::string header = std::string(logMagic) +
                               "\nfingerprint " + fingerprint + "\n";
    Status st = grow(header.size());
    if (!st.ok()) {
        release(0, "failed open");
        return st;
    }
    std::memcpy(map_, header.data(), header.size());
    writtenBytes_ = header.size();
    return flush();
}

Status
RequestLogWriter::openForAppend(const std::string &path,
                                std::uint64_t durable_bytes)
{
    close();
    fd_ = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd_ < 0)
        return Status::ioError("cannot open request log '" + path +
                               "' for append");
    path_ = path;
    // Drop any torn tail first so appends extend the durable prefix.
    if (::ftruncate(fd_, static_cast<off_t>(durable_bytes)) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        return Status::ioError("cannot truncate request log '" + path +
                               "' to its durable prefix (" + reason +
                               ")");
    }
    // The window starts at the page holding the end of the durable
    // prefix; the first append maps it.
    const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    mapBase_ = durable_bytes / page * page;
    allocatedBytes_ = durable_bytes;
    writtenBytes_ = durable_bytes;
    flushedBytes_ = durable_bytes;
    return {};
}

Status
RequestLogWriter::append(const LogRecord &record)
{
    if (fd_ < 0)
        return Status::internal("request log is not open");
    if (writtenBytes_ + logRecordBytes > allocatedBytes_) {
        Status st = grow(writtenBytes_ + logRecordBytes);
        if (!st.ok())
            return st;
    }
    const auto buf = encodeRecord(record);
    std::memcpy(map_ + (writtenBytes_ - mapBase_), buf.data(),
                buf.size());
    writtenBytes_ += buf.size();
    return {};
}

Status
RequestLogWriter::flush()
{
    if (fd_ < 0)
        return Status::internal("request log is not open");
    flushedBytes_ = writtenBytes_;
    return {};
}

void
RequestLogWriter::crash()
{
    if (fd_ < 0)
        return;
    // Cut the file back to the watermark: the acknowledged prefix
    // is all the acceptance protocol promises to keep.
    release(flushedBytes_, "simulated crash");
}

void
RequestLogWriter::close()
{
    if (fd_ < 0)
        return;
    release(writtenBytes_, "close");
    flushedBytes_ = writtenBytes_;
}

Result<RequestLogContents>
readRequestLog(const std::string &path, const std::string &fingerprint)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return Status::notFound("no request log at '" + path + "'");
    std::string line;
    if (!std::getline(in, line) || line != logMagic) {
        return Status::dataLoss("request log '" + path +
                                "' has a foreign or corrupt header");
    }
    if (!std::getline(in, line) ||
            line != "fingerprint " + fingerprint) {
        return Status::dataLoss(
            "request log '" + path +
            "' was written under a different configuration");
    }
    RequestLogContents contents;
    contents.durableBytes = static_cast<std::uint64_t>(in.tellg());
    unsigned char buf[logRecordBytes];
    for (;;) {
        in.read(reinterpret_cast<char *>(buf), logRecordBytes);
        LogRecord record;
        if (in.gcount() != static_cast<std::streamsize>(logRecordBytes) ||
                !decodeRecord(buf, &record))
            break;
        contents.records.push_back(record);
        contents.durableBytes += logRecordBytes;
    }
    // Whatever follows the durable prefix is torn unless it is all
    // zeros: the preallocation a writer that died never reached.
    in.clear();
    in.seekg(static_cast<std::streamoff>(contents.durableBytes));
    char tail[4096];
    while (!contents.tornTail && in.read(tail, sizeof(tail)).gcount() > 0) {
        contents.tornTail =
            std::any_of(tail, tail + in.gcount(),
                        [](char c) { return c != 0; });
    }
    return contents;
}

} // namespace mosaic
