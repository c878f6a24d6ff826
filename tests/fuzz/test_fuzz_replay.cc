/**
 * @file
 * Corpus regression + determinism tests. Every trace checked into
 * tests/fuzz/corpus/ replays with zero divergences (these are either
 * minimized reproducers of fixed bugs or representative passing
 * traces covering each component configuration), and replaying any
 * trace twice yields bit-identical digests and applied-op counts —
 * the property tools/mosaic_replay relies on to compare serial and
 * multi-threaded runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "oracle/fuzzer.hh"
#include "oracle/trace.hh"

using namespace mosaic;
namespace fs = std::filesystem;

namespace
{

std::vector<fs::path>
corpusTraces()
{
    std::vector<fs::path> paths;
    for (const auto &entry : fs::directory_iterator(MOSAIC_FUZZ_CORPUS_DIR))
        if (entry.path().extension() == ".trace")
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace

TEST(FuzzReplay, CorpusIsNonEmpty)
{
    // Guard against a bad MOSAIC_FUZZ_CORPUS_DIR silently turning the
    // whole suite into a no-op.
    EXPECT_GE(corpusTraces().size(), 10u);
}

TEST(FuzzReplay, EveryCorpusTracePasses)
{
    for (const fs::path &path : corpusTraces()) {
        const Trace trace = readTraceFile(path.string());
        const FuzzResult result = runTrace(trace);
        EXPECT_FALSE(result.divergence.has_value())
            << path.filename().string() << " diverged at op "
            << result.divergence->opIndex << ": "
            << result.divergence->message;
        EXPECT_GT(result.opsApplied, 0u)
            << path.filename().string() << " applied no ops";
    }
}

TEST(FuzzReplay, ReplayIsDeterministic)
{
    for (const fs::path &path : corpusTraces()) {
        const Trace trace = readTraceFile(path.string());
        const FuzzResult a = runTrace(trace);
        const FuzzResult b = runTrace(trace);
        EXPECT_EQ(a.digest, b.digest) << path.filename().string();
        EXPECT_EQ(a.opsApplied, b.opsApplied)
            << path.filename().string();
    }
}

TEST(FuzzReplay, SerializationRoundTripsByteExact)
{
    for (const fs::path &path : corpusTraces()) {
        const Trace trace = readTraceFile(path.string());
        const std::string text = serializeTrace(trace);
        const Trace again = parseTrace(text);
        EXPECT_EQ(serializeTrace(again), text)
            << path.filename().string();
        EXPECT_EQ(again.ops.size(), trace.ops.size());
    }
}

TEST(FuzzReplay, GeneratedTracesRoundTripAndMatchDigests)
{
    for (const char *component : {"vm", "tlb"}) {
        const Trace trace = generateTrace(component, 5, 300);
        const Trace again = parseTrace(serializeTrace(trace));
        ASSERT_EQ(again.ops.size(), trace.ops.size()) << component;
        const FuzzResult a = runTrace(trace);
        const FuzzResult b = runTrace(again);
        EXPECT_EQ(a.digest, b.digest) << component;
        EXPECT_FALSE(a.divergence.has_value()) << component;
    }
}
