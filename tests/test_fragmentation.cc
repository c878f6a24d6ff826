/**
 * @file
 * Integration tests for the fragmentation experiment: the paper's
 * motivating claim that contiguity-based reach collapses as memory
 * fragments while Mosaic's does not.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/fragmentation_sim.hh"

namespace mosaic
{
namespace
{

FragmentationOptions
tinyOptions(double pinned)
{
    FragmentationOptions o;
    o.numFrames = 8 * 1024; // 32 MiB
    o.pinnedFraction = pinned;
    o.pinGranularityOrder = 0; // single frames: the harshest regime
    o.footprintFraction = 0.30;
    o.tlbEntries = 256;
    o.ways = 8;
    return o;
}

TEST(Fragmentation, PristineMemoryMapsHugePages)
{
    const FragmentationResult r = runFragmentation(tinyOptions(0.0));
    EXPECT_GT(r.hugeMappings, 0u);
    EXPECT_EQ(r.hugeFallbacks, 0u);
    EXPECT_LT(r.fragmentationIndex, 0.01);
    // THP beats plain 4 KiB handily on pristine memory.
    EXPECT_LT(r.missesThp, r.misses4k / 2);
}

TEST(Fragmentation, HeavyFragmentationKillsThp)
{
    const FragmentationResult r = runFragmentation(tinyOptions(0.5));
    EXPECT_EQ(r.hugeMappings, 0u);
    EXPECT_GT(r.hugeFallbacks, 0u);
    // THP degenerates to the 4 KiB floor (within 5 %).
    EXPECT_GT(r.missesThp, r.misses4k * 95 / 100);
}

TEST(Fragmentation, CoarsePinningSparesColt)
{
    // 256 KiB pinned chunks leave 8-frame runs everywhere: CoLT
    // keeps (nearly) full coverage even though THP is dead.
    FragmentationOptions o = tinyOptions(0.5);
    o.pinGranularityOrder = 6;
    const FragmentationResult r = runFragmentation(o);
    EXPECT_EQ(r.hugeMappings, 0u);
    EXPECT_GT(r.coltCoverage, 6.0);
    EXPECT_LT(r.missesColt, r.misses4k / 2);
}

TEST(Fragmentation, MosaicIsInsensitiveToFragmentation)
{
    const FragmentationResult pristine =
        runFragmentation(tinyOptions(0.0));
    const FragmentationResult fragged =
        runFragmentation(tinyOptions(0.5));
    // Mosaic's misses move by at most a few percent (placement
    // noise), not by the collapse THP shows.
    const double ratio = static_cast<double>(fragged.missesMosaic) /
                         static_cast<double>(pristine.missesMosaic);
    EXPECT_LT(ratio, 1.10);
    EXPECT_GT(ratio, 0.90);
}

TEST(Fragmentation, ColtCoverageShrinksWithFragmentation)
{
    const FragmentationResult pristine =
        runFragmentation(tinyOptions(0.0));
    const FragmentationResult fragged =
        runFragmentation(tinyOptions(0.5));
    // On pristine memory sequential buddy handouts give CoLT real
    // runs to harvest; scattered free frames leave nothing.
    EXPECT_GT(pristine.coltCoverage, fragged.coltCoverage);
    EXPECT_LT(fragged.coltCoverage, 2.0);
}

TEST(Fragmentation, MosaicBeatsEveryBaselineWhenFragmented)
{
    const FragmentationResult r = runFragmentation(tinyOptions(0.5));
    EXPECT_LT(r.missesMosaic, r.misses4k);
    EXPECT_LT(r.missesMosaic, r.missesThp);
    EXPECT_LT(r.missesMosaic, r.missesColt);
}

TEST(Fragmentation, AccessCountsConsistent)
{
    const FragmentationResult r = runFragmentation(tinyOptions(0.2));
    EXPECT_GT(r.accesses, 0u);
    EXPECT_LE(r.misses4k, r.accesses);
    EXPECT_LE(r.missesMosaic, r.accesses);
}

/** Every FragmentationResult field, compared exactly. */
void
expectResult(const FragmentationResult &got,
             const FragmentationResult &want, const char *label)
{
    SCOPED_TRACE(label);
    EXPECT_DOUBLE_EQ(got.fragmentationIndex, want.fragmentationIndex);
    EXPECT_EQ(got.hugeMappings, want.hugeMappings);
    EXPECT_EQ(got.hugeFallbacks, want.hugeFallbacks);
    EXPECT_EQ(got.perforatedRegions, want.perforatedRegions);
    EXPECT_EQ(got.perforatedFallbacks, want.perforatedFallbacks);
    EXPECT_DOUBLE_EQ(got.meanHoles, want.meanHoles);
    EXPECT_EQ(got.accesses, want.accesses);
    EXPECT_EQ(got.misses4k, want.misses4k);
    EXPECT_EQ(got.missesThp, want.missesThp);
    EXPECT_EQ(got.missesColt, want.missesColt);
    EXPECT_EQ(got.missesPerforated, want.missesPerforated);
    EXPECT_EQ(got.missesMosaic, want.missesMosaic);
    EXPECT_DOUBLE_EQ(got.coltCoverage, want.coltCoverage);
}

FragmentationResult
pinned(double index, std::uint64_t huge, std::uint64_t huge_fallbacks,
       std::uint64_t perforated, std::uint64_t perforated_fallbacks,
       double mean_holes, std::uint64_t thp, std::uint64_t colt,
       std::uint64_t perf, double coverage)
{
    FragmentationResult r;
    r.fragmentationIndex = index;
    r.hugeMappings = huge;
    r.hugeFallbacks = huge_fallbacks;
    r.perforatedRegions = perforated;
    r.perforatedFallbacks = perforated_fallbacks;
    r.meanHoles = mean_holes;
    // The workload, the 4 KiB floor and Mosaic do not depend on the
    // fragmentation pattern.
    r.accesses = 3522848;
    r.misses4k = 141103;
    r.missesMosaic = 26968;
    r.missesThp = thp;
    r.missesColt = colt;
    r.missesPerforated = perf;
    r.coltCoverage = coverage;
    return r;
}

// Pins every result of the motivation experiment's drivers (the bare
// TLB fill primitives: lookup, fill, fillHuge, fill4k, fillPerforated
// and the CoLT fill), so a change to any TLB class that moves a
// number here is caught even though no golden file covers
// motivation_fragmentation.
TEST(Fragmentation, ResultsArePinned)
{
    expectResult(runFragmentation(tinyOptions(0.0)),
                 pinned(0.0, 5, 0, 5, 0, 0.0, 5, 26968, 5,
                        7.9998145950756454),
                 "pristine");
    expectResult(runFragmentation(tinyOptions(0.5)),
                 pinned(1.0, 0, 5, 0, 5, 0.0, 141103, 139312, 141103,
                        1.1432396347766165),
                 "fine 0.5");
    FragmentationOptions coarse = tinyOptions(0.5);
    coarse.pinGranularityOrder = 6;
    expectResult(runFragmentation(coarse),
                 pinned(1.0, 0, 5, 2, 3, 64.0, 141103, 26968, 84169,
                        7.9998145950756454),
                 "coarse 0.5");
}

using FragmentationDeathTest = ::testing::Test;

TEST(FragmentationDeathTest, RejectsOverfullConfiguration)
{
    FragmentationOptions o = tinyOptions(0.7);
    o.footprintFraction = 0.4;
    EXPECT_DEATH((void)runFragmentation(o), "headroom");
}

} // namespace
} // namespace mosaic
