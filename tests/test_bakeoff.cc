/**
 * @file
 * The design bake-off and the TranslationSim design wiring: spec
 * coverage, tiny-run shape, the check that a designSpecs
 * vanilla/mosaic design reproduces the same-geometry grid instance
 * exactly, and the mosaic ToC slice (DESIGN.md §14).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/bakeoff.hh"
#include "core/experiments.hh"
#include "core/translation_sim.hh"
#include "hash/mix.hh"
#include "telemetry/report.hh"
#include "tlb/design_registry.hh"
#include "util/random.hh"
#include "workloads/access_sink.hh"
#include "workloads/warp.hh"

using namespace mosaic;

namespace
{

/** A small sim with designSpecs vanilla + mosaic designs next to an
 *  identical-geometry grid. */
TranslationSimConfig
gridMirrorConfig()
{
    TranslationSimConfig config;
    config.memory = ampleGeometry(std::uint64_t{8} << 20);
    config.tlbEntries = 64;
    config.waysList = {4};
    config.arities = {8};
    config.kernel.accessEvery = 0;
    config.designWays = 4;
    config.designSpecs = {"vanilla", "mosaic:arity=8"};
    return config;
}

/** Deterministic reference stream over a 4 MiB region. */
Addr
streamAddr(std::uint64_t i)
{
    return addrOf(mix64(i) % 1024);
}

void
expectStatsEq(const TlbStats &a, const TlbStats &b, const char *what)
{
    EXPECT_EQ(a.accesses, b.accesses) << what;
    EXPECT_EQ(a.hits, b.hits) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.subEntryFills, b.subEntryFills) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
    EXPECT_EQ(a.invalidations, b.invalidations) << what;
}

} // namespace

TEST(Bakeoff, SpecsCoverEveryRegisteredKind)
{
    const BakeoffOptions options;
    const std::vector<std::string> specs = bakeoffSpecs(options, 16);
    ASSERT_EQ(specs.size(), translationDesignKinds().size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string kind = specs[i].substr(0, specs[i].find(':'));
        EXPECT_EQ(kind, translationDesignKinds()[i]);
        EXPECT_TRUE(makeTranslationDesign(specs[i]).ok()) << specs[i];
    }
    // The mosaic-backed designs really are pinned to the arity.
    EXPECT_NE(specs[1].find("arity=16"), std::string::npos);
    EXPECT_NE(specs[4].find("arity=16"), std::string::npos);
    EXPECT_NE(specs[5].find("arity=16"), std::string::npos);
}

TEST(Bakeoff, TinyRunHasTheExpectedShape)
{
    BakeoffOptions options;
    options.scale = 0.02;
    options.kinds = {WorkloadKind::Gups};
    options.arities = {4};
    const std::vector<BakeoffCell> cells = runBakeoff(options);

    ASSERT_EQ(cells.size(), 1u);
    const BakeoffCell &cell = cells[0];
    EXPECT_EQ(cell.kind, WorkloadKind::Gups);
    EXPECT_EQ(cell.arity, 4u);
    EXPECT_GT(cell.accesses, 0u);
    ASSERT_EQ(cell.designs.size(), translationDesignKinds().size());

    for (std::size_t i = 0; i < cell.designs.size(); ++i) {
        const BakeoffDesignResult &d = cell.designs[i];
        EXPECT_EQ(d.kind, translationDesignKinds()[i]);
        // Kernel stream off: every design sees every data reference.
        EXPECT_EQ(d.metric("accesses"), cell.accesses) << d.kind;
        EXPECT_EQ(d.metric("hits") + d.metric("misses"), cell.accesses)
            << d.kind;
        EXPECT_GE(d.missRate(), 0.0);
        EXPECT_LE(d.missRate(), 1.0);
        EXPECT_GT(d.metric("walkRefs"), 0u) << d.kind;
        EXPECT_GT(d.metric("reachPages"), 0u) << d.kind;
    }
    // The PWC only discounts walk cost; it never changes hit/miss.
    EXPECT_LT(cell.designs[5].metric("walkRefs"),
              cell.designs[1].metric("walkRefs"));
    EXPECT_EQ(cell.designs[5].metric("misses"),
              cell.designs[1].metric("misses"));

    telemetry::BenchReport report("bakeoff_test");
    recordBakeoff(report.metrics(), cell);
    const std::string json = report.metricsJson();
    EXPECT_NE(json.find("bakeoff.gups.arity4.vanilla.misses"),
              std::string::npos);
    EXPECT_NE(json.find("bakeoff.gups.arity4.range.walkRefs"),
              std::string::npos);
    EXPECT_NE(json.find("bakeoff.gups.arity4.pwc.pwcHits"),
              std::string::npos);
}

// PR 7 found the stride prefetcher inert on the paper workloads:
// their random streams never confirm a stride, so it issued zero
// prefetches. The warp engine's page-strided lane pattern (lane l at
// cursor + l*8 KiB = constant vpn delta 2 within a warp instruction)
// is exactly what the arbitrary-stride detector confirms on — on
// this stream the design must actually issue and fill prefetches
// (DESIGN.md §15).
TEST(Bakeoff, StridePrefetcherNonInertOnWarpStream)
{
    BakeoffOptions options;
    options.scale = 0.05;
    options.kinds = {WorkloadKind::WarpGpu};
    options.arities = {8};
    const std::vector<BakeoffCell> cells = runBakeoff(options);
    ASSERT_EQ(cells.size(), 1u);
    const BakeoffCell &cell = cells[0];
    ASSERT_EQ(cell.designs.size(), translationDesignKinds().size());
    const BakeoffDesignResult &stride = cell.designs[4];
    EXPECT_EQ(stride.kind, "stride");
    EXPECT_GT(stride.metric("prefetchesIssued"), 0u);
    EXPECT_GT(stride.metric("prefetchFills"), 0u);
}

// Issuing prefetches only pays when the prefetch distance (stride *
// degree pages) crosses a mosaic group boundary: targets inside the
// group the miss just filled hit contains() and are dropped. With
// arity 4 and a 2-page lane stride the targets land in the next
// group, and under capacity pressure the stride design beats its
// mosaic base outright (DESIGN.md §15 records the numbers).
TEST(Bakeoff, StridePrefetcherBeatsMosaicAcrossGroupBoundaries)
{
    WarpConfig wc;
    wc.warpWidth = 32;
    wc.numWarps = 1;
    wc.bufferBytes = 4u << 20; // 1024 pages, looped ~2.5 times
    wc.laneStrideBytes = 8192;
    wc.coalesceFactor = 0.0; // every instruction page-strided
    wc.divergenceRate = 0.0;
    wc.numInstructions = 40'000;
    WarpGpu warp(wc);
    VectorSink sink;
    warp.run(sink);

    TranslationSimConfig config;
    config.memory = ampleGeometry(wc.bufferBytes);
    config.tlbEntries = 64; // reach 256 pages < 1024-page loop
    config.waysList = {4};
    config.arities = {4};
    config.kernel.accessEvery = 0;
    config.designWays = 4;
    config.designSpecs = {"mosaic:arity=4",
                          "stride:base=mosaic,arity=4,mode=arbitrary"};
    TranslationSim sim(config);
    for (const MemRef &ref : sink.trace())
        sim.access(ref.vaddr, ref.write);

    const std::uint64_t mosaic_misses = sim.design(0).stats().misses;
    const std::uint64_t stride_misses = sim.design(1).stats().misses;
    EXPECT_GT(sim.design(1).counters().prefetchesIssued, 0u);
    EXPECT_GT(sim.design(1).counters().prefetchFills, 0u);
    // >10 % fewer misses: the leading-edge group of each warp window
    // is resident before its first lane arrives.
    EXPECT_LT(stride_misses * 10, mosaic_misses * 9);
}

// A designSpecs "vanilla"/"mosaic" design, shaped by designWays, must
// reproduce the identically-shaped grid instance, shaped by waysList,
// stat for stat (same lookups, same walks, same fills).
TEST(Bakeoff, RegistryDesignsMatchBuiltinGrid)
{
    TranslationSim sim(gridMirrorConfig());
    ASSERT_EQ(sim.numDesigns(), 2u);
    for (std::uint64_t i = 0; i < 8000; ++i)
        sim.access(streamAddr(i), false);

    expectStatsEq(sim.design(0).stats(), sim.vanillaStats(0),
                  "vanilla design vs grid");
    expectStatsEq(sim.design(1).stats(), sim.mosaicStats(0, 0),
                  "mosaic design vs grid");
    EXPECT_GT(sim.design(0).stats().misses, 0u);
    EXPECT_GT(sim.design(0).stats().hits, 0u);
    // Every miss cost one full radix walk, nothing more.
    EXPECT_EQ(sim.design(0).counters().walkRefs,
              sim.design(0).stats().misses * 4);
}

// Mosaic designs read their ToC as the aligned A-slot slice of one
// 64-wide leaf per address space, whatever arity the grid runs. A
// never-evicting design over pages that straddle 64-page leaf
// boundaries must cache every touched page (a wrong slice offset
// leaves slots absent or aliased), and must match a grid instance of
// its own arity stat for stat.
TEST(Bakeoff, MosaicTocIsTheAlignedSliceOfTheLeaf)
{
    Rng rng(11);
    std::vector<Vpn> stream(6000);
    std::set<Vpn> distinct;
    for (Vpn &vpn : stream) {
        // Pages 56..71 around the boundary of one of 128 leaves.
        vpn = rng.below(128) * 64 + 56 + rng.below(16);
        distinct.insert(vpn);
    }

    for (const unsigned arity : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        const std::string a = std::to_string(arity);
        TranslationSimConfig config;
        config.memory = ampleGeometry(std::uint64_t{64} << 20);
        config.tlbEntries = 64;
        config.waysList = {8};
        config.arities = {4};
        config.kernel.accessEvery = 0;
        config.designSpecs = {"mosaic:arity=" + a +
                              ",entries=4096,ways=4096"};
        TranslationSim sim(config);

        TranslationSimConfig grid_config = config;
        grid_config.tlbEntries = 4096;
        grid_config.waysList = {4096};
        grid_config.arities = {arity};
        grid_config.designSpecs = {};
        TranslationSim grid(grid_config);

        for (const Vpn vpn : stream) {
            sim.access(addrOf(vpn), false);
            grid.access(addrOf(vpn), false);
        }
        const TranslationDesign &design = sim.design(0);
        EXPECT_EQ(design.stats().evictions, 0u) << "arity " << a;
        EXPECT_EQ(design.reachPages(), distinct.size()) << "arity " << a;
        expectStatsEq(design.stats(), grid.mosaicStats(0, 0),
                      ("arity " + a).c_str());
    }
}
