/**
 * @file
 * Differential fuzzing of the wrapper and range designs (stride
 * prefetcher, two-level PWC, range TLB) and of every registry kind
 * on the corpus, against their reference models: cached translations,
 * hit/miss results and every forEachDesignMetric metric must agree.
 * Both sides of each run are built from one parsed registry spec, so
 * the spec grammar is exercised on every trace.
 *
 * Coverage comes from four directions: fresh generated seeds per
 * pseudo-component (strided cursors plus random jumps), every wrapper
 * over every base the registry accepts, the checked-in tlb corpus
 * traces re-pinned to each registry kind (arbitrary geometries and
 * op mixes the generator would rarely produce), and determinism
 * replays.
 */

#include "fuzz_test_util.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "oracle/fuzzer.hh"
#include "oracle/trace.hh"
#include "tlb/design_registry.hh"

using namespace mosaic;
using namespace mosaic::fuzztest;
namespace fs = std::filesystem;

namespace
{

constexpr const char *kComponents[] = {"tlb-stride", "tlb-pwc",
                                       "tlb-range"};

/** One wrapper configuration; an empty mode leaves the key unset. */
struct WrapperCell
{
    std::string kind;
    std::string base;
    std::string mode;
};

/** Every (wrapper, base) pair the registry accepts, in both modes
 *  where the wrapper has a mode key. */
std::vector<WrapperCell>
wrapperCells()
{
    std::vector<WrapperCell> cells;
    for (const char *kind : translationDesignKinds()) {
        for (const char *base : translationDesignKinds()) {
            const std::string spec = std::string(kind) + ":base=" + base;
            if (!parseDesignSpec(spec).ok())
                continue;
            std::vector<std::string> modes;
            for (const char *mode : {"fixed", "arbitrary"})
                if (parseDesignSpec(spec + ",mode=" + mode).ok())
                    modes.push_back(mode);
            if (modes.empty())
                modes.push_back("");
            for (const std::string &mode : modes)
                cells.push_back({kind, base, mode});
        }
    }
    return cells;
}

std::vector<fs::path>
tlbCorpusTraces()
{
    std::vector<fs::path> paths;
    for (const auto &entry : fs::directory_iterator(MOSAIC_FUZZ_CORPUS_DIR))
        if (entry.path().filename().string().starts_with("tlb_") &&
            entry.path().extension() == ".trace")
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace

// 8 fresh seeds x 3 design kinds = 24 fresh differential runs at the
// default budget (MOSAIC_FUZZ_SEEDS raises it in CI).
TEST(FuzzDesigns, GeneratedSeedsPass)
{
    const std::uint64_t seeds = seedBudget(8);
    const std::uint64_t ops = opBudget();
    for (const char *component : kComponents)
        for (std::uint64_t s = 1; s <= seeds; ++s)
            expectSeedPasses(component, s, ops);
}

// Every checked-in tlb trace, re-pinned to each registry kind: the
// op sequences and geometries were minimized/curated against the four
// base variants, which makes them unusual inputs for the others.
TEST(FuzzDesigns, CorpusRepinnedToEachKind)
{
    const std::vector<fs::path> paths = tlbCorpusTraces();
    ASSERT_GE(paths.size(), 5u);
    for (const fs::path &path : paths) {
        for (const char *kind : translationDesignKinds()) {
            Trace trace = readTraceFile(path.string());
            trace.setCfg("kind", kind);
            const FuzzResult result = runTrace(trace);
            EXPECT_FALSE(result.divergence.has_value())
                << path.filename().string() << " pinned to " << kind
                << " diverged at op " << result.divergence->opIndex
                << ": " << result.divergence->message;
            EXPECT_GT(result.opsApplied, 0u);
        }
    }
}

// Every wrapper over every base, in every mode, at the generated
// geometry and at a fully associative one (hardest LRU-order case).
TEST(FuzzDesigns, WrapperMatrixPinned)
{
    const std::vector<WrapperCell> cells = wrapperCells();
    ASSERT_GE(cells.size(), 4u);
    for (const WrapperCell &cell : cells) {
        for (const unsigned ways : {0u, 16u}) {
            Trace trace =
                generateTrace("tlb-" + cell.kind, 99, opBudget(2000));
            trace.setCfg("base", cell.base);
            if (!cell.mode.empty())
                trace.setCfg("mode", cell.mode);
            if (ways != 0) {
                trace.setCfgUint("entries", ways);
                trace.setCfgUint("ways", ways);
            }
            const FuzzResult result = runTrace(trace);
            EXPECT_FALSE(result.divergence.has_value())
                << cell.kind << " base=" << cell.base << " mode="
                << cell.mode << " ways=" << ways << ": "
                << result.divergence->message;
        }
    }
}

TEST(FuzzDesigns, ReplayIsDeterministic)
{
    for (const char *component : kComponents) {
        const Trace trace = generateTrace(component, 3, opBudget(2000));
        const FuzzResult a = runTrace(trace);
        const FuzzResult b = runTrace(trace);
        EXPECT_EQ(a.digest, b.digest) << component;
        EXPECT_EQ(a.opsApplied, b.opsApplied) << component;
    }
}
