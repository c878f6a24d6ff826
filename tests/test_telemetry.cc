/**
 * @file
 * Tests for the telemetry subsystem: the JSON writer's escaping and
 * deterministic number formatting, the metric registry's naming and
 * stat expansion, the BENCH_*.json schema (checked with
 * telemetry/json_reader.hh), and the golden serial-vs-parallel property: a fixed-seed
 * Fig 6 run must serialize to byte-identical metrics JSON whether the
 * cells ran on one thread or many.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment_export.hh"
#include "core/experiments.hh"
#include "telemetry/json_reader.hh"
#include "telemetry/json_writer.hh"
#include "telemetry/registry.hh"
#include "telemetry/report.hh"
#include "tlb/tlb_stats.hh"
#include "util/thread_pool.hh"

namespace mosaic
{
namespace
{

using telemetry::BenchReport;
using telemetry::JsonParser;
using telemetry::JsonValue;
using telemetry::JsonWriter;
using telemetry::MetricValue;
using telemetry::Registry;

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

// ---------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------

TEST(JsonWriter, QuotesAndEscapes)
{
    EXPECT_EQ(telemetry::jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(telemetry::jsonQuote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(telemetry::jsonQuote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(telemetry::jsonQuote("a\nb"), "\"a\\nb\"");
    // Control characters must come out as \u00XX.
    EXPECT_EQ(telemetry::jsonQuote(std::string_view{"\x01", 1}),
              "\"\\u0001\"");
}

TEST(JsonWriter, DoublesRoundTrip)
{
    for (const double v :
         {0.0, 1.5, -2.25, 1.0 / 3.0, 98.0151, 1e300, 1e-300}) {
        const std::string text = telemetry::jsonDouble(v);
        EXPECT_EQ(std::stod(text), v) << text;
    }
    // JSON has no NaN/Inf; they serialize as null.
    EXPECT_EQ(telemetry::jsonDouble(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(telemetry::jsonDouble(
                  std::numeric_limits<double>::infinity()),
              "null");
}

TEST(JsonWriter, NestedStructuresParseBack)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("name", "bench \"x\"");
    w.field("count", std::uint64_t{42});
    w.field("ratio", 0.5);
    w.field("flag", true);
    w.key("list");
    w.beginArray();
    w.value(1);
    w.value(2);
    w.endArray();
    w.key("nested");
    w.beginObject();
    w.field("inner", -3);
    w.endObject();
    w.endObject();

    const JsonValue v = parseJson(os.str());
    ASSERT_EQ(v.kind, JsonValue::Object);
    EXPECT_EQ(v.at("name").text, "bench \"x\"");
    EXPECT_EQ(v.at("count").number, 42);
    EXPECT_EQ(v.at("ratio").number, 0.5);
    EXPECT_TRUE(v.at("flag").boolean);
    ASSERT_EQ(v.at("list").items.size(), 2u);
    EXPECT_EQ(v.at("list").items[1].number, 2);
    EXPECT_EQ(v.at("nested").at("inner").number, -3);
}

// ---------------------------------------------------------------
// Registry
// ---------------------------------------------------------------

TEST(Registry, StoresCountersGaugesAndText)
{
    Registry r;
    EXPECT_TRUE(r.empty());
    r.counter("a.count", 7);
    r.gauge("a.rate", 0.25);
    r.text("a.note", "hello");
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(std::get<std::uint64_t>(r.at("a.count")), 7u);
    EXPECT_EQ(std::get<double>(r.at("a.rate")), 0.25);
    EXPECT_EQ(std::get<std::string>(r.at("a.note")), "hello");
    EXPECT_TRUE(r.contains("a.rate"));
    EXPECT_FALSE(r.contains("a.other"));
}

TEST(Registry, StatExpandsToSixLeaves)
{
    RunningStat s;
    s.add(1.0);
    s.add(2.0);
    s.add(6.0);
    Registry r;
    r.stat("util", s);
    EXPECT_EQ(r.size(), 6u);
    EXPECT_EQ(std::get<std::uint64_t>(r.at("util.count")), 3u);
    EXPECT_EQ(std::get<double>(r.at("util.mean")), 3.0);
    EXPECT_EQ(std::get<double>(r.at("util.min")), 1.0);
    EXPECT_EQ(std::get<double>(r.at("util.max")), 6.0);
    EXPECT_EQ(std::get<double>(r.at("util.sum")), 9.0);
    EXPECT_TRUE(r.contains("util.stddev"));
}

TEST(Registry, IterationIsSortedByName)
{
    Registry r;
    r.counter("z", 1);
    r.counter("a", 2);
    r.counter("m.q", 3);
    r.counter("m.b", 4);
    std::vector<std::string> names;
    r.forEach([&](const std::string &name, const MetricValue &) {
        names.push_back(name);
    });
    EXPECT_EQ(names,
              (std::vector<std::string>{"a", "m.b", "m.q", "z"}));
}

TEST(Registry, AddStatsUsesForEachMetric)
{
    TlbStats stats;
    stats.accesses = 100;
    stats.hits = 90;
    stats.misses = 10;
    stats.subEntryFills = 4;
    Registry r;
    r.addStats("tlb.l1", stats);
    EXPECT_EQ(std::get<std::uint64_t>(r.at("tlb.l1.accesses")), 100u);
    EXPECT_EQ(std::get<std::uint64_t>(r.at("tlb.l1.misses")), 10u);
    EXPECT_EQ(std::get<std::uint64_t>(r.at("tlb.l1.subEntryFills")),
              4u);
    EXPECT_EQ(std::get<double>(r.at("tlb.l1.missRate")), 0.1);
}

TEST(RegistryDeathTest, DuplicateNameIsFatal)
{
    Registry r;
    r.counter("dup", 1);
    EXPECT_EXIT(r.counter("dup", 2),
                ::testing::ExitedWithCode(1), "duplicate metric");
}

// ---------------------------------------------------------------
// BenchReport schema
// ---------------------------------------------------------------

/** Every BENCH_*.json must satisfy this shape (DESIGN.md §9). */
void
expectValidSchema(const JsonValue &v)
{
    ASSERT_EQ(v.kind, JsonValue::Object);
    ASSERT_TRUE(v.has("schema"));
    EXPECT_EQ(v.at("schema").text, "mosaic-telemetry-v1");
    ASSERT_TRUE(v.has("bench"));
    EXPECT_EQ(v.at("bench").kind, JsonValue::String);
    EXPECT_FALSE(v.at("bench").text.empty());
    ASSERT_TRUE(v.has("seed"));
    EXPECT_EQ(v.at("seed").kind, JsonValue::Number);
    ASSERT_TRUE(v.has("threads"));
    EXPECT_EQ(v.at("threads").kind, JsonValue::Number);
    ASSERT_TRUE(v.has("config"));
    EXPECT_EQ(v.at("config").kind, JsonValue::Object);
    ASSERT_TRUE(v.has("timing"));
    const JsonValue &timing = v.at("timing");
    ASSERT_EQ(timing.kind, JsonValue::Object);
    for (const char *field :
         {"wallSeconds", "serialEquivalentSeconds", "speedup"}) {
        ASSERT_TRUE(timing.has(field)) << field;
        EXPECT_EQ(timing.at(field).kind, JsonValue::Number) << field;
    }
    ASSERT_TRUE(v.has("metrics"));
    const JsonValue &metrics = v.at("metrics");
    ASSERT_EQ(metrics.kind, JsonValue::Object);
    for (const auto &[name, value] : metrics.members) {
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(value.kind == JsonValue::Number ||
                    value.kind == JsonValue::String ||
                    value.kind == JsonValue::Null)
            << name;
    }
}

TEST(BenchReport, WriteJsonMatchesSchema)
{
    BenchReport report("unit_test");
    report.manifest().seed = 42;
    report.manifest().threads = 8;
    report.config("scale", 0.5);
    report.config("kernelHugePages", true);
    report.config("label", "x");
    report.config("frames", 16384);
    report.timing().wallSeconds = 1.5;
    report.timing().serialSeconds = 6.0;
    report.metrics().counter("m.count", 3);
    report.metrics().gauge("m.rate", 0.75);

    std::ostringstream os;
    report.writeJson(os);
    const JsonValue v = parseJson(os.str());
    expectValidSchema(v);
    EXPECT_EQ(v.at("bench").text, "unit_test");
    EXPECT_EQ(v.at("seed").number, 42);
    EXPECT_EQ(v.at("threads").number, 8);
    EXPECT_EQ(v.at("config").at("scale").text, "0.5");
    EXPECT_EQ(v.at("config").at("kernelHugePages").text, "true");
    EXPECT_EQ(v.at("timing").at("speedup").number, 4.0);
    EXPECT_EQ(v.at("metrics").at("m.count").number, 3);
    EXPECT_EQ(v.at("metrics").at("m.rate").number, 0.75);
}

TEST(BenchReport, WriteHonorsJsonDirAndNoJson)
{
    BenchReport report("telemetry_selftest");
    report.metrics().counter("x", 1);

    ::setenv("MOSAIC_JSON_DIR", ::testing::TempDir().c_str(), 1);
    ::unsetenv("MOSAIC_NO_JSON");
    const Result<std::string> path = report.tryWrite();
    ASSERT_TRUE(path.ok()) << path.status().toString();
    EXPECT_NE(path.value().find("BENCH_telemetry_selftest.json"),
              std::string::npos);
    std::ifstream in(path.value());
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    expectValidSchema(parseJson(buffer.str()));
    std::remove(path.value().c_str());

    // A directory that does not exist is an IoError, not a skip.
    ::setenv("MOSAIC_JSON_DIR",
             (::testing::TempDir() + "/no_such_dir").c_str(), 1);
    EXPECT_EQ(report.tryWrite().status().code(), StatusCode::IoError);

    ::setenv("MOSAIC_NO_JSON", "1", 1);
    EXPECT_FALSE(BenchReport::jsonEnabled());
    EXPECT_EQ(report.tryWrite().status().code(), StatusCode::NotFound);
    ::setenv("MOSAIC_NO_JSON", "0", 1);
    EXPECT_TRUE(BenchReport::jsonEnabled());
    ::unsetenv("MOSAIC_NO_JSON");
    ::unsetenv("MOSAIC_JSON_DIR");
}

// ---------------------------------------------------------------
// Golden fixed-seed telemetry: the metrics JSON of a Fig 6 run is a
// pure function of the seed — identical bytes from serial and
// parallel runs, and stable against the checked-in golden values
// (same configuration as test_golden_fig6.cc).
// ---------------------------------------------------------------

Fig6Options
goldenOptions()
{
    Fig6Options o;
    o.scale = 1.0 / 64;
    o.waysList = {1, 8, 256};
    o.arities = {4, 16};
    o.tlbEntries = 256;
    o.seed = 1;
    return o;
}

BenchReport
runGoldenReport(ThreadPool &pool)
{
    BenchReport report("golden_fig6");
    report.manifest().seed = goldenOptions().seed;
    report.manifest().threads = pool.threadCount();
    // Timings differ between runs by design; they stay outside
    // metricsJson().
    report.timing().wallSeconds = static_cast<double>(
        pool.threadCount());
    recordFig6(report.metrics(),
               runFig6(WorkloadKind::Gups, goldenOptions(), pool));
    return report;
}

TEST(GoldenTelemetry, SerialAndParallelMetricsAreByteIdentical)
{
    ThreadPool one(1);
    ThreadPool many(
        std::max(4u, std::thread::hardware_concurrency()));
    const std::string serial = runGoldenReport(one).metricsJson();
    const std::string parallel = runGoldenReport(many).metricsJson();
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(GoldenTelemetry, MetricsMatchCheckedInGoldenValues)
{
    ThreadPool one(1);
    const BenchReport report = runGoldenReport(one);
    const Registry &m = report.metrics();
    // Spot values from test_golden_fig6.cc's table.
    EXPECT_EQ(std::get<std::uint64_t>(
                  m.at("fig6.gups.footprintBytes")),
              2097152u);
    EXPECT_EQ(std::get<std::uint64_t>(m.at("fig6.gups.accesses")),
              126953u);
    EXPECT_EQ(std::get<std::uint64_t>(
                  m.at("fig6.gups.ways1.vanilla.misses")),
              31877u);
    EXPECT_EQ(std::get<std::uint64_t>(
                  m.at("fig6.gups.ways1.mosaic4.misses")),
              2773u);
    EXPECT_EQ(std::get<std::uint64_t>(
                  m.at("fig6.gups.ways8.mosaic16.misses")),
              1279u);
    EXPECT_EQ(std::get<std::uint64_t>(
                  m.at("fig6.gups.ways256.vanilla.misses")),
              31555u);

    // And the serialized form parses into exactly these values.
    const JsonValue v = parseJson(report.metricsJson());
    ASSERT_EQ(v.kind, JsonValue::Object);
    EXPECT_EQ(v.at("fig6.gups.ways1.vanilla.misses").number, 31877);
    EXPECT_EQ(v.members.size(), m.size());
}

} // namespace
} // namespace mosaic
