/**
 * @file
 * Unit tests for mosaicd's building blocks (DESIGN.md §16): the SPSC
 * ring, the deterministic token bucket and admission controller, the
 * retry helper, the request log (framing, torn and zero-filled
 * tails, crash watermark, survival of a real process death), the
 * latency histogram, and the epoch-checkpoint payload codec.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/request_log.hh"
#include "serve/admission.hh"
#include "serve/ring.hh"
#include "serve/session.hh"
#include "telemetry/histogram.hh"
#include "util/random.hh"

namespace fs = std::filesystem;

using namespace mosaic;
using namespace mosaic::serve;

namespace
{

/** A scratch directory wiped on construction and destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &leaf)
        : path_(fs::temp_directory_path() / leaf)
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

} // namespace

// ---------------------------------------------------------------
// SpscRing

TEST(SpscRing, RoundsCapacityUpToPowerOfTwo)
{
    SpscRing<int> ring(3);
    EXPECT_EQ(ring.capacity(), 4u);
    SpscRing<int> tiny(0);
    EXPECT_EQ(tiny.capacity(), 2u);
    SpscRing<int> exact(8);
    EXPECT_EQ(exact.capacity(), 8u);
}

TEST(SpscRing, FifoOrderAndBackpressure)
{
    SpscRing<int> ring(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.tryPush(i));
    EXPECT_FALSE(ring.tryPush(99)) << "full ring must push back";
    EXPECT_EQ(ring.freeSlots(), 0u);
    int v = -1;
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(ring.tryPop(&v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(ring.tryPop(&v)) << "empty ring must report empty";
    EXPECT_EQ(ring.freeSlots(), 4u);
}

TEST(SpscRing, WrapsAroundManyTimes)
{
    SpscRing<std::uint64_t> ring(4);
    std::uint64_t next = 0;
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(ring.tryPush(next + i));
        std::uint64_t v = 0;
        for (int i = 0; i < 3; ++i) {
            ASSERT_TRUE(ring.tryPop(&v));
            ASSERT_EQ(v, next + i);
        }
        next += 3;
    }
}

TEST(SpscRing, ConcurrentProducerConsumerPreservesStream)
{
    SpscRing<std::uint64_t> ring(64);
    constexpr std::uint64_t n = 200000;
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < n; ++i) {
            while (!ring.tryPush(i))
                std::this_thread::yield();
        }
    });
    std::uint64_t expected = 0;
    while (expected < n) {
        std::uint64_t v = 0;
        if (ring.tryPop(&v)) {
            ASSERT_EQ(v, expected);
            ++expected;
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------
// TokenBucket / AdmissionController

TEST(TokenBucket, DisabledBucketAlwaysAdmits)
{
    TokenBucket bucket;
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(bucket.admit());
}

TEST(TokenBucket, BurstThenDry)
{
    TokenBucket bucket(4, 0);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(bucket.admit()) << "burst token " << i;
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(bucket.admit());
}

TEST(TokenBucket, RefillsAtTheConfiguredRate)
{
    // 500 millitokens per attempt: after the initial burst token,
    // every second attempt is admitted.
    TokenBucket bucket(1, 500);
    unsigned admitted = 0;
    for (int i = 0; i < 20; ++i)
        admitted += bucket.admit() ? 1 : 0;
    EXPECT_EQ(admitted, 10u);
}

TEST(AdmissionController, QuotaShedsWithResourceExhausted)
{
    AdmissionController admission(2, TokenBucket());
    fault::FaultInjector inert;
    ShedClass cls = ShedClass::Lifecycle;
    EXPECT_TRUE(admission.admit(0, inert, &cls).ok());
    EXPECT_TRUE(admission.admit(1, inert, &cls).ok());
    const Status st = admission.admit(2, inert, &cls);
    EXPECT_EQ(st.code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(cls, ShedClass::Quota);
}

TEST(AdmissionController, InjectedAdmitFaultIsTyped)
{
    auto plan = fault::FaultPlan::parse("serve.admit:every=1");
    ASSERT_TRUE(plan.ok());
    fault::FaultInjector inj(&plan.value(), 1);
    AdmissionController admission(0, TokenBucket());
    ShedClass cls = ShedClass::Lifecycle;
    const Status st = admission.admit(0, inj, &cls);
    EXPECT_EQ(st.code(), StatusCode::Injected);
    EXPECT_EQ(cls, ShedClass::Injected);
}

TEST(RetryWithBackoff, StopsImmediatelyOnNonRetryable)
{
    Rng rng(1);
    unsigned attempts = 0;
    const Status st = retryWithBackoff(
        [&] {
            ++attempts;
            return Status::invalidArgument("no");
        },
        rng, 8, 1);
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
    EXPECT_EQ(attempts, 1u);
}

TEST(RetryWithBackoff, RetriesTransientShedsUntilSuccess)
{
    Rng rng(1);
    unsigned attempts = 0;
    const Status st = retryWithBackoff(
        [&] {
            ++attempts;
            if (attempts < 3)
                return Status::resourceExhausted("backpressure");
            return Status();
        },
        rng, 8, 1);
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(attempts, 3u);
}

TEST(RetryWithBackoff, GivesUpAfterMaxAttempts)
{
    Rng rng(1);
    unsigned attempts = 0;
    const Status st = retryWithBackoff(
        [&] {
            ++attempts;
            return Status::resourceExhausted("still full");
        },
        rng, 5, 1);
    EXPECT_EQ(st.code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(attempts, 5u);
}

// ---------------------------------------------------------------
// Request log

TEST(RequestLog, RoundTripsRecords)
{
    const TempDir dir("mosaic_reqlog_roundtrip");
    const std::string path = dir.str() + "/a.log";
    RequestLogWriter writer;
    ASSERT_TRUE(writer.open(path, "fp1").ok());
    for (std::uint64_t i = 0; i < 5; ++i) {
        ASSERT_TRUE(writer
                        .append({LogRecordKind::Translate, i % 2 == 0,
                                 i, 0x1000 * i})
                        .ok());
    }
    ASSERT_TRUE(writer.flush().ok());
    writer.close();

    const auto read = readRequestLog(path, "fp1");
    ASSERT_TRUE(read.ok()) << read.status().toString();
    const RequestLogContents &contents = read.value();
    ASSERT_EQ(contents.records.size(), 5u);
    EXPECT_FALSE(contents.tornTail);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(contents.records[i].seq, i);
        EXPECT_EQ(contents.records[i].vaddr, 0x1000 * i);
        EXPECT_EQ(contents.records[i].write, i % 2 == 0);
    }
}

TEST(RequestLog, RefusesForeignFingerprintAndMissingFile)
{
    const TempDir dir("mosaic_reqlog_fp");
    const std::string path = dir.str() + "/a.log";
    RequestLogWriter writer;
    ASSERT_TRUE(writer.open(path, "fp1").ok());
    writer.close();
    EXPECT_EQ(readRequestLog(path, "fp2").status().code(),
              StatusCode::DataLoss);
    EXPECT_EQ(readRequestLog(dir.str() + "/absent.log", "fp1")
                  .status()
                  .code(),
              StatusCode::NotFound);
}

TEST(RequestLog, TornTailIsDiscardedNotFatal)
{
    const TempDir dir("mosaic_reqlog_torn");
    const std::string path = dir.str() + "/a.log";
    RequestLogWriter writer;
    ASSERT_TRUE(writer.open(path, "fp").ok());
    for (std::uint64_t i = 0; i < 3; ++i)
        ASSERT_TRUE(
            writer.append({LogRecordKind::Translate, false, i, i})
                .ok());
    ASSERT_TRUE(writer.flush().ok());
    writer.close();

    // A crash mid-append leaves a partial record.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write("garbage", 7);
    }
    const auto read = readRequestLog(path, "fp");
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().records.size(), 3u);
    EXPECT_TRUE(read.value().tornTail);

    // Recovery reopens at the durable prefix; appends extend it.
    RequestLogWriter appender;
    ASSERT_TRUE(
        appender.openForAppend(path, read.value().durableBytes)
            .ok());
    ASSERT_TRUE(
        appender.append({LogRecordKind::Translate, true, 3, 0x3000})
            .ok());
    ASSERT_TRUE(appender.flush().ok());
    appender.close();
    const auto reread = readRequestLog(path, "fp");
    ASSERT_TRUE(reread.ok());
    EXPECT_EQ(reread.value().records.size(), 4u);
    EXPECT_FALSE(reread.value().tornTail);
}

TEST(RequestLog, CorruptChecksumStopsTheDurablePrefix)
{
    const TempDir dir("mosaic_reqlog_corrupt");
    const std::string path = dir.str() + "/a.log";
    RequestLogWriter writer;
    ASSERT_TRUE(writer.open(path, "fp").ok());
    const std::uint64_t headerBytes = writer.writtenBytes();
    for (std::uint64_t i = 0; i < 3; ++i)
        ASSERT_TRUE(
            writer.append({LogRecordKind::Translate, false, i, i})
                .ok());
    ASSERT_TRUE(writer.flush().ok());
    writer.close();

    // Flip a byte inside the second record.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in |
                           std::ios::out);
        f.seekp(static_cast<std::streamoff>(headerBytes +
                                            logRecordBytes + 4));
        char b = 0x7F;
        f.write(&b, 1);
    }
    const auto read = readRequestLog(path, "fp");
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().records.size(), 1u);
    EXPECT_TRUE(read.value().tornTail);
}

TEST(RequestLog, CrashTruncatesToTheFlushedWatermark)
{
    const TempDir dir("mosaic_reqlog_crash");
    const std::string path = dir.str() + "/a.log";
    RequestLogWriter writer;
    ASSERT_TRUE(writer.open(path, "fp").ok());
    for (std::uint64_t i = 0; i < 2; ++i)
        ASSERT_TRUE(
            writer.append({LogRecordKind::Translate, false, i, i})
                .ok());
    ASSERT_TRUE(writer.flush().ok());
    for (std::uint64_t i = 2; i < 5; ++i)
        ASSERT_TRUE(
            writer.append({LogRecordKind::Translate, false, i, i})
                .ok());
    // No flush: these three were never durable, and a crash must
    // lose exactly them.
    writer.crash();

    const auto read = readRequestLog(path, "fp");
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().records.size(), 2u);
    EXPECT_FALSE(read.value().tornTail);
}

TEST(RequestLog, ZeroFilledTailIsACleanEnd)
{
    const TempDir dir("mosaic_reqlog_zero_tail");
    const std::string path = dir.str() + "/a.log";
    RequestLogWriter writer;
    ASSERT_TRUE(writer.open(path, "fp").ok());
    for (std::uint64_t i = 0; i < 3; ++i)
        ASSERT_TRUE(
            writer.append({LogRecordKind::Translate, i == 1, i, i})
                .ok());
    ASSERT_TRUE(writer.flush().ok());
    writer.close();
    const auto before = readRequestLog(path, "fp");
    ASSERT_TRUE(before.ok());
    EXPECT_FALSE(before.value().tornTail);

    // A writer that dies leaves its preallocation behind: zeros,
    // not a whole number of records long.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        const std::string zeros(10000, '\0');
        out.write(zeros.data(),
                  static_cast<std::streamsize>(zeros.size()));
    }
    const auto after = readRequestLog(path, "fp");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value().records, before.value().records);
    EXPECT_EQ(after.value().durableBytes,
              before.value().durableBytes);
    EXPECT_FALSE(after.value().tornTail);
}

TEST(RequestLogDeathTest, FlushedRecordsSurviveProcessDeath)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const TempDir dir("mosaic_reqlog_process_death");
    const std::string path = dir.str() + "/a.log";
    constexpr std::uint64_t records = 5000;

    // The child dies without close(): nothing trims, nothing runs
    // a destructor, only what flush() acknowledged may be relied on.
    EXPECT_EXIT(
        {
            RequestLogWriter writer;
            if (!writer.open(path, "fp").ok())
                std::_Exit(1);
            for (std::uint64_t i = 0; i < records; ++i) {
                if (!writer
                         .append({LogRecordKind::Translate, i % 3 == 0,
                                  i, 0x1000 + 64 * i})
                         .ok() ||
                        !writer.flush().ok())
                    std::_Exit(2);
            }
            std::_Exit(0);
        },
        ::testing::ExitedWithCode(0), "");

    RequestLogWriter reference;
    ASSERT_TRUE(reference.open(dir.str() + "/header.log", "fp").ok());
    const std::uint64_t headerBytes = reference.writtenBytes();
    reference.close();

    const auto read = readRequestLog(path, "fp");
    ASSERT_TRUE(read.ok()) << read.status().toString();
    ASSERT_EQ(read.value().records.size(), records);
    EXPECT_EQ(read.value().durableBytes,
              headerBytes + records * logRecordBytes);
    EXPECT_FALSE(read.value().tornTail);
    for (std::uint64_t i = 0; i < records; ++i) {
        const LogRecord expect{LogRecordKind::Translate, i % 3 == 0, i,
                               0x1000 + 64 * i};
        ASSERT_EQ(read.value().records[i], expect) << "record " << i;
    }
}

// ---------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogram, BucketsByLog2)
{
    telemetry::LatencyHistogram h;
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(1024);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(10), 1u);
    EXPECT_EQ(telemetry::LatencyHistogram::bucketFloorNs(10), 1024u);
}

TEST(LatencyHistogram, PercentilesAreBucketFloors)
{
    telemetry::LatencyHistogram h;
    for (int i = 0; i < 100; ++i)
        h.record(10); // bucket 3, floor 8
    EXPECT_EQ(h.percentileNs(500), 8u);
    EXPECT_EQ(h.percentileNs(990), 8u);
    h.record(std::uint64_t{1} << 20); // one tail outlier
    EXPECT_EQ(h.percentileNs(500), 8u);
    EXPECT_EQ(h.percentileNs(999), std::uint64_t{1} << 20);
    EXPECT_LE(h.percentileNs(500), h.percentileNs(990));
    EXPECT_LE(h.percentileNs(990), h.percentileNs(999));
}

TEST(LatencyHistogram, MergeAddsSamples)
{
    telemetry::LatencyHistogram a, b;
    a.record(4);
    b.record(4);
    b.record(1 << 12);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.bucket(2), 2u);
    EXPECT_EQ(a.bucket(12), 1u);
}

TEST(LatencyHistogram, EmptyPercentileIsZero)
{
    telemetry::LatencyHistogram h;
    EXPECT_EQ(h.percentileNs(999), 0u);
}

// ---------------------------------------------------------------
// Epoch checkpoint codec

TEST(EpochCheckpoint, PayloadRoundTrips)
{
    const auto parsed = parseEpochCheckpoint(
        "epoch 3\nrecords 128\ndigest 987654321\n");
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().epoch, 3u);
    EXPECT_EQ(parsed.value().records, 128u);
    EXPECT_EQ(parsed.value().digest, 987654321u);
}

TEST(EpochCheckpoint, MalformedPayloadIsDataLoss)
{
    EXPECT_EQ(parseEpochCheckpoint("epoch 3\nrecords 128\n")
                  .status()
                  .code(),
              StatusCode::DataLoss);
    EXPECT_EQ(parseEpochCheckpoint(
                  "epoch 3\nrecords x\ndigest 1\n")
                  .status()
                  .code(),
              StatusCode::DataLoss);
    EXPECT_EQ(parseEpochCheckpoint(
                  "epoch 3\nrecords 1\ndigest 1\nbogus 9\n")
                  .status()
                  .code(),
              StatusCode::DataLoss);
}
