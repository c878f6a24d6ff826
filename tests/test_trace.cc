/**
 * @file
 * Tests for trace recording and replay: round trips, header
 * validation, limits, truncation handling, and equivalence between
 * live and replayed simulation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "workloads/gups.hh"
#include "workloads/trace_file.hh"

namespace mosaic
{
namespace
{

class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "mosaic_trace_" +
                std::to_string(
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->line()) +
                ".trc";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(TraceTest, RoundTripPreservesRecords)
{
    {
        TraceWriter writer(path_);
        writer.access(0x1000, false);
        writer.access(0x2fff, true);
        writer.access((Addr{1} << 47) - 1, true);
        EXPECT_EQ(writer.records(), 3u);
    }
    TraceReader reader(path_);
    EXPECT_EQ(reader.records(), 3u);

    VectorSink sink;
    EXPECT_EQ(reader.replay(sink), 3u);
    ASSERT_EQ(sink.trace().size(), 3u);
    EXPECT_EQ(sink.trace()[0].vaddr, 0x1000u);
    EXPECT_FALSE(sink.trace()[0].write);
    EXPECT_EQ(sink.trace()[1].vaddr, 0x2fffu);
    EXPECT_TRUE(sink.trace()[1].write);
    EXPECT_EQ(sink.trace()[2].vaddr, (Addr{1} << 47) - 1);
    EXPECT_TRUE(sink.trace()[2].write);
}

TEST_F(TraceTest, ReplayLimit)
{
    {
        TraceWriter writer(path_);
        for (int i = 0; i < 100; ++i)
            writer.access(static_cast<Addr>(i) * 4096, false);
    }
    TraceReader reader(path_);
    CountingSink sink;
    EXPECT_EQ(reader.replay(sink, 10), 10u);
    EXPECT_EQ(sink.accesses(), 10u);
}

TEST_F(TraceTest, WorkloadTraceMatchesLiveRun)
{
    GupsConfig config;
    config.tableEntries = 1 << 12;
    config.numUpdates = 2000;
    Gups gups(config);

    {
        TraceWriter writer(path_);
        gups.run(writer);
    }
    VectorSink live;
    gups.run(live);

    TraceReader reader(path_);
    VectorSink replayed;
    reader.replay(replayed);

    ASSERT_EQ(replayed.trace().size(), live.trace().size());
    for (std::size_t i = 0; i < live.trace().size(); i += 97) {
        EXPECT_EQ(replayed.trace()[i].vaddr, live.trace()[i].vaddr);
        EXPECT_EQ(replayed.trace()[i].write, live.trace()[i].write);
    }
}

TEST_F(TraceTest, LargeTraceBatches)
{
    // Cross the 64 Ki-record read-batch boundary.
    constexpr std::uint64_t n = 200'000;
    {
        TraceWriter writer(path_);
        for (std::uint64_t i = 0; i < n; ++i)
            writer.access(i * 64, i % 3 == 0);
    }
    TraceReader reader(path_);
    CountingSink sink;
    EXPECT_EQ(reader.replay(sink), n);
    EXPECT_EQ(sink.accesses(), n);
    EXPECT_EQ(sink.writes(), (n + 2) / 3);
}

TEST_F(TraceTest, ExplicitCloseThenRead)
{
    TraceWriter writer(path_);
    writer.access(4096, false);
    writer.close();
    TraceReader reader(path_);
    EXPECT_EQ(reader.records(), 1u);
}

TEST_F(TraceTest, OpenReportsAMissingFileAsNotFound)
{
    const auto r = TraceReader::open(path_ + ".nope");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::NotFound);
}

TEST_F(TraceTest, OpenReportsAShortHeaderAsDataLoss)
{
    {
        std::ofstream junk(path_, std::ios::binary);
        junk << "MOSAICTR"; // the magic, then nothing
    }
    const auto r = TraceReader::open(path_);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DataLoss);
}

TEST_F(TraceTest, OpenReportsAnUnknownVersionAsInvalidArgument)
{
    {
        TraceWriter writer(path_);
        writer.access(0x1000, false);
    }
    {
        // The version word follows the 8-byte magic.
        std::fstream file(path_,
                          std::ios::binary | std::ios::in | std::ios::out);
        const std::uint32_t version = 2;
        file.seekp(8);
        file.write(reinterpret_cast<const char *>(&version),
                   sizeof version);
    }
    const auto r = TraceReader::open(path_);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
}

TEST_F(TraceTest, OpenReadsAValidFile)
{
    {
        TraceWriter writer(path_);
        writer.access(0x1000, false);
        writer.access(0x2000, true);
    }
    const auto r = TraceReader::open(path_);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value()->records(), 2u);
}

using TraceDeathTest = TraceTest;

TEST_F(TraceDeathTest, RejectsNonTraceFile)
{
    {
        std::ofstream junk(path_);
        junk << "definitely not a trace file, far too short header";
    }
    EXPECT_EXIT(TraceReader{path_}, ::testing::ExitedWithCode(1),
                "not a mosaic trace");
}

TEST_F(TraceDeathTest, RejectsMissingFile)
{
    EXPECT_EXIT(TraceReader{path_ + ".nope"},
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST_F(TraceDeathTest, WriteAfterClosePanics)
{
    TraceWriter writer(path_);
    writer.close();
    EXPECT_DEATH(writer.access(0, false), "after close");
}

} // namespace
} // namespace mosaic
