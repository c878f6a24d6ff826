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
    {"repeat_touch_hint.trace", 15805457968072811427ull, 143},
    {"repeat_touch_hint_linux.trace", 9828091013828289825ull, 99},
    {"tlb_seed1.trace", 8989511554147415485ull, 2000},
    {"tlb_seed13.trace", 8984735817782752560ull, 2000},
    {"tlb_seed2.trace", 11030404164527443136ull, 1882},
    {"tlb_seed3.trace", 10279311506589771070ull, 2000},
    {"tlb_seed4.trace", 3663744691645384934ull, 2000},
    {"vm-shard_seed1.trace", 7354204406591376375ull, 2000},
    {"vm-shard_seed11.trace", 9328550632844078930ull, 2000},
    {"vm-shard_seed4.trace", 6269676809091984375ull, 2000},
    {"vm_seed1.trace", 16453423457793323468ull, 2000},
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

// Fresh generateTrace() sweeps at 4000 ops: 8 seeds for vm and tlb, 4
// for vm-shard and for each design pseudo-component.
constexpr FreshGolden freshGoldens[] = {
    {"vm", 1ull, 4000u, 1802567896903992309ull, 4000u},
    {"vm", 2ull, 4000u, 227479879539742391ull, 4000u},
    {"vm", 3ull, 4000u, 12975585293134197369ull, 4000u},
    {"vm", 4ull, 4000u, 16192042451799791349ull, 4000u},
    {"vm", 5ull, 4000u, 6509343633951978690ull, 4000u},
    {"vm", 6ull, 4000u, 15584828886362830418ull, 4000u},
    {"vm", 7ull, 4000u, 18209927320135685503ull, 4000u},
    {"vm", 8ull, 4000u, 4558736807962956266ull, 4000u},
    {"vm-shard", 1ull, 4000u, 3747477134948378175ull, 4000u},
    {"vm-shard", 2ull, 4000u, 6811566868125455444ull, 4000u},
    {"vm-shard", 3ull, 4000u, 14858606069638029286ull, 4000u},
    {"vm-shard", 4ull, 4000u, 15551417586694870211ull, 4000u},
    {"tlb", 1ull, 4000u, 2117653091505080974ull, 4000u},
    {"tlb", 2ull, 4000u, 17987959156886865393ull, 4000u},
    {"tlb", 3ull, 4000u, 18058812808874252700ull, 4000u},
    {"tlb", 4ull, 4000u, 14865847380130940327ull, 4000u},
    {"tlb", 5ull, 4000u, 9966796391208793322ull, 4000u},
    {"tlb", 6ull, 4000u, 9390991007473507214ull, 4000u},
    {"tlb", 7ull, 4000u, 18308702825162086654ull, 4000u},
    {"tlb", 8ull, 4000u, 16984362778487534213ull, 4000u},
    {"tlb-stride", 1ull, 4000u, 7404388805249807982ull, 4000u},
    {"tlb-stride", 2ull, 4000u, 12264207742661056764ull, 4000u},
    {"tlb-stride", 3ull, 4000u, 6071427855056958375ull, 4000u},
    {"tlb-stride", 4ull, 4000u, 11348242993869515830ull, 4000u},
    {"tlb-pwc", 1ull, 4000u, 15673644285461642182ull, 4000u},
    {"tlb-pwc", 2ull, 4000u, 15448966851367172180ull, 4000u},
    {"tlb-pwc", 3ull, 4000u, 14310593665664905303ull, 4000u},
    {"tlb-pwc", 4ull, 4000u, 15963577774539116936ull, 4000u},
    {"tlb-range", 1ull, 4000u, 11763716954863972494ull, 4000u},
    {"tlb-range", 2ull, 4000u, 16062175720757548608ull, 4000u},
    {"tlb-range", 3ull, 4000u, 11719333202855133727ull, 4000u},
    {"tlb-range", 4ull, 4000u, 15869479291053609509ull, 4000u},
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
