/**
 * @file
 * Pinned-digest equivalence tests: the observable behaviour of the
 * VM and TLB stacks is frozen as FNV digests over every
 * corpus trace and a sweep of freshly generated traces. Any change
 * to placement, eviction, probing, or accounting that alters a
 * single observable outcome flips a digest and fails here — this is
 * the contract that lets hot-path data-structure rewrites (bitmap
 * probing, flat maps, batched hashing) land without behaviour drift.
 *
 * The digests were recorded from serial runs and verified identical
 * under MOSAIC_THREADS=1 and MOSAIC_THREADS=4; the thread-pool test
 * below re-checks that invariance in-process with explicit 1- and
 * 4-worker pools.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "oracle/fuzzer.hh"
#include "oracle/trace.hh"
#include "util/thread_pool.hh"

using namespace mosaic;
namespace fs = std::filesystem;

namespace
{

struct CorpusGolden
{
    const char *name;
    std::uint64_t digest;
    std::size_t opsApplied;
};

// One entry per checked-in corpus trace. Regenerate with
// tools/mosaic_replay after an *intentional* behaviour change.
constexpr CorpusGolden corpusGoldens[] = {
    {"ghost_rescue_adoption.trace", 14674125878381882746ull, 126},
    {"ghost_rescue_adoption_long.trace", 7267721577211409804ull, 577},
    {"tlb_seed1.trace", 17475615509327730047ull, 2000},
    {"tlb_seed13.trace", 14888094062101289659ull, 2000},
    {"tlb_seed2.trace", 5536836242472044596ull, 2000},
    {"tlb_seed3.trace", 2856143697853722682ull, 2000},
    {"tlb_seed4.trace", 13487116255103069025ull, 2000},
    {"vm-shard_seed1.trace", 7354204406591376375ull, 2000},
    {"vm-shard_seed11.trace", 9328550632844078930ull, 2000},
    {"vm-shard_seed13.trace", 13357099176557344888ull, 1884},
    {"vm-shard_seed29.trace", 13300108742336519232ull, 1906},
    {"vm-shard_seed4.trace", 6269676809091984375ull, 2000},
    {"vm_seed1.trace", 16453423457793323468ull, 2000},
    {"vm_seed13.trace", 4380896405506859887ull, 1872},
    {"vm_seed14.trace", 12612648230678402869ull, 2000},
    {"vm_seed2.trace", 17829253315784731889ull, 2000},
    {"vm_seed3.trace", 11893999554279364395ull, 2000},
    {"vm_seed4.trace", 16836882967811444107ull, 2000},
    {"wl-kv_seed1.trace", 7206186565797812130ull, 3000},
    {"wl-kv_seed2.trace", 4800170624497574997ull, 3000},
    {"wl-scan_seed1.trace", 3037950596104393952ull, 3000},
    {"wl-scan_seed2.trace", 17902444696638005138ull, 3000},
    {"wl-session_seed1.trace", 17810837658771123040ull, 3000},
    {"wl-session_seed2.trace", 12679606475150892030ull, 3000},
    {"wl-warp_seed1.trace", 14271401641184361194ull, 3000},
    {"wl-warp_seed2.trace", 12439652432580806755ull, 3000},
};

struct FreshGolden
{
    const char *component;
    std::uint64_t seed;
    std::size_t numOps;
    std::uint64_t digest;
    std::size_t opsApplied;
};

// Fresh generateTrace() sweeps: 8 seeds per component at 4000 ops.
constexpr FreshGolden freshGoldens[] = {
    {"vm", 1ull, 4000u, 1802567896903992309ull, 4000u},
    {"vm", 2ull, 4000u, 12470357187984636251ull, 4000u},
    {"vm", 3ull, 4000u, 4573978801501107102ull, 4000u},
    {"vm", 4ull, 4000u, 5571181489335277707ull, 4000u},
    {"vm", 5ull, 4000u, 6509343633951978690ull, 4000u},
    {"vm", 6ull, 4000u, 12199113887720736735ull, 4000u},
    {"vm", 7ull, 4000u, 15069368938410500506ull, 4000u},
    {"vm", 8ull, 4000u, 4558736807962956266ull, 4000u},
    {"vm-shard", 1ull, 4000u, 8571212845453879594ull, 3802u},
    {"vm-shard", 2ull, 4000u, 18412944092187819907ull, 4000u},
    {"vm-shard", 3ull, 4000u, 17576827964146887582ull, 4000u},
    {"vm-shard", 4ull, 4000u, 16584354164570952334ull, 3794u},
    {"tlb", 1ull, 4000u, 3585466602176344134ull, 4000u},
    {"tlb", 2ull, 4000u, 7480110974605423026ull, 4000u},
    {"tlb", 3ull, 4000u, 1194973029098713469ull, 4000u},
    {"tlb", 4ull, 4000u, 15961398935396753117ull, 4000u},
    {"tlb", 5ull, 4000u, 6746646528952416100ull, 4000u},
    {"tlb", 6ull, 4000u, 805798702827141589ull, 4000u},
    {"tlb", 7ull, 4000u, 8100107992367519399ull, 4000u},
    {"tlb", 8ull, 4000u, 561405217994852731ull, 4000u},
};

std::string
corpusPath(const char *name)
{
    return std::string(MOSAIC_FUZZ_CORPUS_DIR) + "/" + name;
}

} // namespace

TEST(FuzzEquivalence, GoldenTableCoversWholeCorpus)
{
    // A new corpus trace must come with a pinned digest, or this
    // suite silently stops covering it.
    std::set<std::string> pinned;
    for (const CorpusGolden &g : corpusGoldens)
        pinned.insert(g.name);
    for (const auto &entry : fs::directory_iterator(MOSAIC_FUZZ_CORPUS_DIR)) {
        if (entry.path().extension() != ".trace")
            continue;
        EXPECT_TRUE(pinned.contains(entry.path().filename().string()))
            << entry.path().filename().string()
            << " has no golden digest in test_fuzz_equivalence.cc";
    }
}

TEST(FuzzEquivalence, CorpusDigestsMatchGoldens)
{
    for (const CorpusGolden &g : corpusGoldens) {
        const Trace trace = readTraceFile(corpusPath(g.name));
        const FuzzResult r = runTrace(trace);
        ASSERT_FALSE(r.divergence.has_value())
            << g.name << " diverged at op " << r.divergence->opIndex
            << ": " << r.divergence->message;
        EXPECT_EQ(r.digest, g.digest) << g.name;
        EXPECT_EQ(r.opsApplied, g.opsApplied) << g.name;
    }
}

TEST(FuzzEquivalence, FreshTraceDigestsMatchGoldens)
{
    for (const FreshGolden &g : freshGoldens) {
        const Trace trace = generateTrace(g.component, g.seed, g.numOps);
        const FuzzResult r = runTrace(trace);
        ASSERT_FALSE(r.divergence.has_value())
            << g.component << " seed " << g.seed << " diverged at op "
            << r.divergence->opIndex << ": " << r.divergence->message;
        EXPECT_EQ(r.digest, g.digest)
            << g.component << " seed " << g.seed;
        EXPECT_EQ(r.opsApplied, g.opsApplied)
            << g.component << " seed " << g.seed;
    }
}

TEST(FuzzEquivalence, BatchedCorpusReproducesScalarGoldens)
{
    // The batched-pipeline leg (DESIGN.md §13): replaying the whole
    // corpus with the touchBatch shadow engaged must (a)
    // never diverge — the shadow cross-checks every block against
    // the scalar path — and (b) reproduce the pinned scalar digests
    // bit for bit, because batching cannot change observable
    // behaviour.
    for (const CorpusGolden &g : corpusGoldens) {
        const Trace trace = readTraceFile(corpusPath(g.name));
        for (const unsigned batch : {7u, 64u}) {
            const FuzzResult r = runTrace(trace, batch);
            ASSERT_FALSE(r.divergence.has_value())
                << g.name << " batch " << batch << " diverged at op "
                << r.divergence->opIndex << ": "
                << r.divergence->message;
            EXPECT_EQ(r.digest, g.digest)
                << g.name << " batch " << batch;
            EXPECT_EQ(r.opsApplied, g.opsApplied)
                << g.name << " batch " << batch;
        }
    }
}

TEST(FuzzEquivalence, BatchedFreshTracesReproduceScalarGoldens)
{
    for (const FreshGolden &g : freshGoldens) {
        const Trace trace =
            generateTrace(g.component, g.seed, g.numOps);
        const FuzzResult r = runTrace(trace, 64);
        ASSERT_FALSE(r.divergence.has_value())
            << g.component << " seed " << g.seed
            << " diverged at op " << r.divergence->opIndex << ": "
            << r.divergence->message;
        EXPECT_EQ(r.digest, g.digest)
            << g.component << " seed " << g.seed;
        EXPECT_EQ(r.opsApplied, g.opsApplied)
            << g.component << " seed " << g.seed;
    }
}

TEST(FuzzEquivalence, DigestsAreThreadCountInvariant)
{
    // The same property the driver checks with MOSAIC_THREADS=1 vs 4:
    // replaying the whole corpus through explicit 1- and 4-worker
    // pools must reproduce the serial goldens bit for bit.
    constexpr std::size_t n = std::size(corpusGoldens);
    for (const unsigned workers : {1u, 4u}) {
        ThreadPool pool(workers);
        std::vector<FuzzResult> results(n);
        parallelFor(pool, n, [&](std::size_t i) {
            const Trace trace =
                readTraceFile(corpusPath(corpusGoldens[i].name));
            results[i] = runTrace(trace);
        });
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(results[i].digest, corpusGoldens[i].digest)
                << corpusGoldens[i].name << " with " << workers
                << " workers";
            EXPECT_EQ(results[i].opsApplied, corpusGoldens[i].opsApplied)
                << corpusGoldens[i].name << " with " << workers
                << " workers";
        }
    }
}
