/**
 * @file
 * Differential fuzzing of the VM stack under the scenario engines'
 * real reference streams (DESIGN.md §15): each wl-* pseudo-component
 * records a tiny warp/KV/session/scan engine run and folds its page
 * stream onto a small mosaic or linux VM, so demand paging, eviction,
 * and refill run in lockstep with the VM oracle under structured
 * locality (warp strides, Zipf skew, session churn, column scans)
 * instead of uniform noise.
 *
 * Coverage: fresh generated seeds per engine, checked-in corpus
 * traces (minimized shapes the generator rarely reproduces), and
 * determinism replays.
 */

#include "fuzz_test_util.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "oracle/fuzzer.hh"
#include "oracle/trace.hh"

using namespace mosaic;
using namespace mosaic::fuzztest;
namespace fs = std::filesystem;

namespace
{

constexpr const char *kComponents[] = {"wl-warp", "wl-kv",
                                       "wl-session", "wl-scan"};

std::vector<fs::path>
workloadCorpusTraces()
{
    std::vector<fs::path> paths;
    for (const auto &entry : fs::directory_iterator(MOSAIC_FUZZ_CORPUS_DIR))
        if (entry.path().filename().string().starts_with("wl-") &&
            entry.path().extension() == ".trace")
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace

// 4 fresh seeds x 4 engines = 16 fresh differential runs at the
// default budget (MOSAIC_FUZZ_SEEDS raises it in CI).
TEST(FuzzWorkloads, GeneratedSeedsPass)
{
    const std::uint64_t seeds = seedBudget(4);
    const std::uint64_t ops = opBudget(4000);
    for (const char *component : kComponents)
        for (std::uint64_t s = 1; s <= seeds; ++s)
            expectSeedPasses(component, s, ops);
}

// Every checked-in wl-* trace must still pass bit-identically — the
// corpus pins the engine shapes and VM configs that have shipped.
TEST(FuzzWorkloads, CorpusTracesPass)
{
    const std::vector<fs::path> paths = workloadCorpusTraces();
    ASSERT_GE(paths.size(), 4u);
    for (const fs::path &path : paths) {
        const Trace trace = readTraceFile(path.string());
        EXPECT_EQ(trace.component, "vm") << path.filename().string();
        const FuzzResult result = runTrace(trace);
        EXPECT_FALSE(result.divergence.has_value())
            << path.filename().string() << " diverged at op "
            << result.divergence->opIndex << ": "
            << result.divergence->message;
        EXPECT_GT(result.opsApplied, 0u);
    }
}

// Same (component, seed, ops) must regenerate the identical trace
// and digest: the engine streams inside the generator are pure
// functions of the trace rng.
TEST(FuzzWorkloads, ReplayIsDeterministic)
{
    for (const char *component : kComponents) {
        const Trace trace = generateTrace(component, 3, opBudget(2000));
        const Trace again = generateTrace(component, 3, opBudget(2000));
        ASSERT_EQ(trace.ops.size(), again.ops.size()) << component;
        for (std::size_t i = 0; i < trace.ops.size(); ++i) {
            ASSERT_EQ(trace.ops[i].kind, again.ops[i].kind)
                << component << " op " << i;
            for (unsigned a = 0; a < trace.ops[i].nargs; ++a)
                ASSERT_EQ(trace.ops[i].args[a], again.ops[i].args[a])
                    << component << " op " << i;
        }
        const FuzzResult a = runTrace(trace);
        const FuzzResult b = runTrace(again);
        EXPECT_EQ(a.digest, b.digest) << component;
        EXPECT_EQ(a.opsApplied, b.opsApplied) << component;
    }
}

