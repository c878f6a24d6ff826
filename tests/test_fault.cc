/**
 * @file
 * Tests for the robustness layer (DESIGN.md §11): the Status/Result
 * error taxonomy, deterministic fault injection (plan parsing, the
 * environment plan's site check and firing rules), negative tests for
 * the Status-returning trace parser, and death tests confirming
 * internal-invariant panics still abort.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "mem/mosaic_mapper.hh"
#include "oracle/trace.hh"
#include "os/swap_device.hh"
#include "util/stats.hh"
#include "util/status.hh"

namespace mosaic
{
namespace
{

namespace fs = std::filesystem;

// ------------------------------------------------------------ Status

TEST(Status, DefaultIsOk)
{
    const Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::Ok);
    EXPECT_EQ(s.toString(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage)
{
    const Status s = Status::ioError("cannot open 'x'");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::IoError);
    EXPECT_EQ(s.toString(), "IO_ERROR: cannot open 'x'");
    EXPECT_EQ(Status::dataLoss("t").code(), StatusCode::DataLoss);
    EXPECT_EQ(Status::notFound("t").code(), StatusCode::NotFound);
    EXPECT_EQ(Status::invalidArgument("t").code(),
              StatusCode::InvalidArgument);
}

TEST(Status, ResultHoldsValueOrStatus)
{
    const Result<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);
    EXPECT_EQ(good.valueOr(9), 7);

    const Result<int> bad(Status::notFound("no"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::NotFound);
    EXPECT_EQ(bad.valueOr(9), 9);
}

TEST(StatusDeathTest, ValueOnErrorResultPanics)
{
    const Result<int> bad(Status::notFound("no"));
    EXPECT_DEATH((void)bad.value(), "value\\(\\) on an error Result");
}

// --------------------------------------------------------- FaultPlan

TEST(FaultPlan, ParsesMultiSitePlans)
{
    const auto r = fault::FaultPlan::parse(
        "serve.admit:every=1000;serve.crash:p=1e-4,after=10,limit=3");
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const fault::FaultPlan &plan = r.value();
    EXPECT_FALSE(plan.empty());
    ASSERT_NE(plan.spec("serve.admit"), nullptr);
    EXPECT_EQ(plan.spec("serve.admit")->every, 1000u);
    const fault::FaultSpec *crash = plan.spec("serve.crash");
    ASSERT_NE(crash, nullptr);
    EXPECT_DOUBLE_EQ(crash->p, 1e-4);
    EXPECT_EQ(crash->after, 10u);
    EXPECT_EQ(crash->limit, 3u);
    EXPECT_EQ(plan.spec("cell.run"), nullptr);
}

TEST(FaultPlan, EmptyAndTrailingSeparatorsTolerated)
{
    EXPECT_TRUE(fault::FaultPlan::parse("").value().empty());
    const auto r = fault::FaultPlan::parse("a:p=1;;b:every=2;");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().specs().size(), 2u);
}

TEST(FaultPlan, MalformedPlansAreInvalidArgument)
{
    const char *bad[] = {
        "noentry",          // no colon
        ":p=1",             // empty site
        "site:p",           // not key=value
        "site:every=0",     // every must be >= 1
        "site:p=1.5",       // p out of range
        "site:p=x",         // not a number
        "site:every=-3",    // not unsigned
        "site:bogus=1",     // unknown key
        "site:",            // rule required
    };
    for (const char *text : bad) {
        const auto r = fault::FaultPlan::parse(text);
        EXPECT_FALSE(r.ok()) << text;
        if (!r.ok()) {
            EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument)
                << text;
        }
    }
}

// A plan naming a site no component consults would run clean and
// exit 0, so the user would think it was applied.
TEST(FaultPlanDeathTest, EnvPlanNamingAnUnknownSiteIsFatal)
{
    EXPECT_EXIT(
        {
            ::setenv("MOSAIC_FAULTS", "swap.write:every=50", 1);
            (void)fault::FaultPlan::fromEnv();
        },
        ::testing::ExitedWithCode(1), "unknown site 'swap.write'");
}

// ----------------------------------------------------- FaultInjector

TEST(FaultInjector, EveryNthHitFires)
{
    const auto plan = fault::FaultPlan::parse("s:every=3").value();
    fault::FaultInjector inj(&plan, 42);
    std::vector<bool> fired;
    for (int i = 0; i < 9; ++i)
        fired.push_back(inj.shouldFail("s"));
    const std::vector<bool> want{false, false, true, false, false,
                                 true, false, false, true};
    EXPECT_EQ(fired, want);
}

TEST(FaultInjector, AfterSuppressesAndLimitCaps)
{
    const auto plan =
        fault::FaultPlan::parse("s:every=1,after=4,limit=2").value();
    fault::FaultInjector inj(&plan, 42);
    unsigned fired = 0;
    for (int i = 0; i < 20; ++i)
        fired += inj.shouldFail("s") ? 1 : 0;
    EXPECT_EQ(fired, 2u);
    // The first firing is hit 5 (after=4 suppressed hits 1-4).
    fault::FaultInjector again(&plan, 42);
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(again.shouldFail("s"));
    EXPECT_TRUE(again.shouldFail("s"));
}

TEST(FaultInjector, ProbabilityOneAlwaysFiresAndOtherSitesNever)
{
    const auto always = fault::FaultPlan::parse("s:p=1").value();
    fault::FaultInjector a(&always, 7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(a.shouldFail("s"));
        EXPECT_FALSE(a.shouldFail("unlisted.site"));
    }
}

TEST(FaultInjector, ProbabilisticFiringIsSeedDeterministic)
{
    const auto plan = fault::FaultPlan::parse("s:p=0.3").value();
    fault::FaultInjector a(&plan, 1234), b(&plan, 1234);
    fault::FaultInjector c(&plan, 99);
    std::vector<bool> fa, fb, fc;
    for (int i = 0; i < 200; ++i) {
        fa.push_back(a.shouldFail("s"));
        fb.push_back(b.shouldFail("s"));
        fc.push_back(c.shouldFail("s"));
    }
    EXPECT_EQ(fa, fb); // same seed: identical sequence
    EXPECT_NE(fa, fc); // different seed: different draws
    // ~30 % firing rate, loose bounds.
    const auto fired = std::count(fa.begin(), fa.end(), true);
    EXPECT_GT(fired, 30);
    EXPECT_LT(fired, 90);
}

TEST(FaultInjector, InertWithoutPlan)
{
    fault::FaultInjector inj;
    EXPECT_FALSE(inj.shouldFail("anything"));
    const auto empty = fault::FaultPlan::parse("").value();
    fault::FaultInjector with_empty(&empty, 1);
    EXPECT_FALSE(with_empty.shouldFail("anything"));
}

// ------------------------------------------- trace parser error paths

TEST(TraceErrors, MalformedCfgLineIsInvalidArgument)
{
    const std::string text = std::string(Trace::magic) +
                             "\ncomponent vm\ncfg onlykey\nend\n";
    const auto r = tryParseTrace(text);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
}

TEST(TraceErrors, BadMagicIsInvalidArgument)
{
    const auto r = tryParseTrace("not-a-trace v9\nend\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
}

TEST(TraceErrors, TruncatedTraceIsDataLoss)
{
    Trace trace;
    trace.component = "vm";
    trace.setCfgUint("pseed", 7);
    TraceOp op;
    op.kind = 'i';
    op.nargs = 1;
    op.args[0] = 5;
    trace.ops.push_back(op);
    std::string text = serializeTrace(trace);
    text.resize(text.size() - 4); // cut off the "end\n" marker
    const auto r = tryParseTrace(text);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DataLoss);
    EXPECT_NE(r.status().message().find("truncated"),
              std::string::npos);
}

TEST(TraceErrors, MissingFileIsNotFound)
{
    const auto r =
        tryReadTraceFile("/nonexistent/dir/nothing.trace");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::NotFound);
}

TEST(TraceErrors, UnwritablePathIsIoError)
{
    const Trace trace;
    const Status s =
        tryWriteTraceFile("/nonexistent/dir/out.trace", trace);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::IoError);
}

TEST(TraceErrors, TruncatedFileOnDiskIsDataLoss)
{
    Trace trace;
    trace.component = "vm";
    trace.setCfgUint("pseed", 7);
    for (std::uint64_t vpn = 0; vpn < 8; ++vpn) {
        TraceOp op;
        op.kind = 't';
        op.nargs = 3;
        op.args = {1, vpn, 0};
        trace.ops.push_back(op);
    }
    const fs::path path =
        fs::temp_directory_path() / "mosaic_truncated.trace";
    ASSERT_TRUE(tryWriteTraceFile(path.string(), trace).ok());
    EXPECT_TRUE(tryReadTraceFile(path.string()).ok());

    // A torn write: the file ends at a line boundary before "end".
    std::string text = serializeTrace(trace);
    text.resize(text.rfind("op t 1 4"));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    }
    const auto r = tryReadTraceFile(path.string());
    fs::remove(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DataLoss);
}

// ------------------------------------------------------ swap device

TEST(SwapFaults, FaultCountersAbsentFromCleanMetrics)
{
    SwapDevice dev;
    dev.writeOut(1);
    dev.readIn(1);
    std::vector<std::string> names;
    dev.forEachMetric([&](const char *name, std::uint64_t) {
        names.emplace_back(name);
    });
    const std::vector<std::string> want{"reads", "writes", "totalIo",
                                        "pagesStored"};
    EXPECT_EQ(names, want);
}

#ifdef NDEBUG
TEST(SwapFaults, SpuriousReadCountedInReleaseBuilds)
{
    SwapDevice dev;
    dev.readIn(123); // no swap copy: caller bug
    EXPECT_EQ(dev.reads(), 0u);
    EXPECT_EQ(dev.spuriousReads(), 1u);
}
#else
TEST(SwapFaultsDeathTest, SpuriousReadPanicsInDebugBuilds)
{
    SwapDevice dev;
    EXPECT_DEATH(dev.readIn(123), "no swap copy");
}
#endif

// -------------------------------- internal-invariant death tests

TEST(InvariantDeathTest, IcebergImpossibleGeometryPanics)
{
    // An iceberg memory with no buckets cannot host a page's
    // candidate set; building its mapper must panic, not misplace.
    MemoryGeometry g;
    g.numFrames = 0;
    EXPECT_DEATH(MosaicMapper{g}, "fewer buckets than hash choices");
}

TEST(InvariantDeathTest, MapperNonCandidatePfnPanics)
{
    // The mapper's "PFN is not a candidate" panic (mosaic_mapper.cc)
    // must stay a panic: it means this library corrupted a page
    // table, which no Status can make safe to continue from.
    MemoryGeometry g;
    g.numFrames = 64 * 64;
    const MosaicMapper m(g);
    const CandidateSet c = m.candidates(PageId{1, 1});
    const std::uint32_t other =
        (c.frontBucket + 1) %
        static_cast<std::uint32_t>(g.numBuckets());
    const Pfn bad = Pfn{other} * g.slotsPerBucket();
    EXPECT_DEATH((void)m.toCpfn(c, bad), "not a candidate");
}

// ------------------------------------- RunningStat checkpoint codec

TEST(RunningStatCodec, RoundTripsBitExactly)
{
    RunningStat s;
    for (const double x : {3.14159, -2.5, 1e-300, 7e200, 0.1})
        s.add(x);
    RunningStat back;
    ASSERT_TRUE(back.decode(s.encode()));
    EXPECT_EQ(back.count(), s.count());
    // Bit-exact, not approximately equal: hexfloat round-trip.
    EXPECT_EQ(back.mean(), s.mean());
    EXPECT_EQ(back.stddev(), s.stddev());
    EXPECT_EQ(back.sum(), s.sum());
    EXPECT_EQ(back.min(), s.min());
    EXPECT_EQ(back.max(), s.max());
    EXPECT_EQ(back.encode(), s.encode());
}

TEST(RunningStatCodec, MalformedTextRejectedWithoutSideEffects)
{
    RunningStat s;
    s.add(5.0);
    const std::string saved = s.encode();
    EXPECT_FALSE(s.decode("not a stat"));
    EXPECT_FALSE(s.decode("3 0x1p+0 0x1p+0"));       // too few fields
    EXPECT_FALSE(s.decode(saved + " trailing"));     // extra token
    EXPECT_EQ(s.encode(), saved); // unchanged by failed decodes
}

} // namespace
} // namespace mosaic
