/**
 * @file
 * Tests for the perforated-pages baseline (§5.1): targeted buddy
 * carving, the perforated TLB's hole handling, and the experiment
 * integration.
 */

#include <gtest/gtest.h>

#include "core/fragmentation_sim.hh"
#include "mem/buddy_allocator.hh"
#include "tlb/perforated_tlb.hh"

namespace mosaic
{
namespace
{

TEST(BuddySpecific, CarvesFrameOutOfLargeBlock)
{
    BuddyAllocator b(1024);
    EXPECT_TRUE(b.allocateSpecific(300));
    EXPECT_EQ(b.freeFrames(), 1023u);
    EXPECT_FALSE(b.isFree(300));
    // The rest of memory is still allocatable...
    EXPECT_TRUE(b.isFree(299));
    EXPECT_TRUE(b.isFree(301));
    // ...and freeing it restores full coalescing.
    b.free(300, 0);
    EXPECT_EQ(b.freeBlocks(9), 2u);
}

TEST(BuddySpecific, FailsOnAllocatedFrame)
{
    BuddyAllocator b(512);
    ASSERT_TRUE(b.allocateSpecific(7));
    EXPECT_FALSE(b.allocateSpecific(7));
}

TEST(BuddySpecific, WholeWindowCarvedFrameByFrame)
{
    BuddyAllocator b(1024);
    for (Pfn pfn = 512; pfn < 1024; ++pfn)
        ASSERT_TRUE(b.allocateSpecific(pfn)) << pfn;
    EXPECT_EQ(b.freeFrames(), 512u);
    // The untouched first half is still one huge block.
    EXPECT_EQ(b.freeBlocks(9), 1u);
    EXPECT_TRUE(b.allocateHuge().has_value());
}

TEST(BuddySpecific, InterleavedWithNormalAllocation)
{
    BuddyAllocator b(1024);
    ASSERT_TRUE(b.allocateSpecific(100));
    const auto frame = b.allocateFrame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_NE(*frame, 100u);
    EXPECT_EQ(b.freeFrames(), 1022u);
}

HoleBitmap
holesAt(std::initializer_list<unsigned> offs)
{
    HoleBitmap holes{};
    for (unsigned off : offs)
        setHole(holes, off);
    return holes;
}

TEST(PerforatedTlb, SolidEntryCoversWholeRegion)
{
    PerforatedTlb tlb({16, 4});
    tlb.fillPerforated(1, 512, 4096, HoleBitmap{});
    for (Vpn v = 512; v < 1024; v += 61) {
        const auto pfn = tlb.lookup(1, v);
        ASSERT_TRUE(pfn.has_value()) << v;
        EXPECT_EQ(*pfn, 4096 + (v - 512));
    }
    EXPECT_EQ(tlb.stats().misses, 0u);
}

TEST(PerforatedTlb, HolesMissUntilFilled)
{
    PerforatedTlb tlb({16, 4});
    tlb.fillPerforated(1, 0, 1000, holesAt({5, 17}));
    EXPECT_TRUE(tlb.lookup(1, 4).has_value());
    EXPECT_FALSE(tlb.lookup(1, 5).has_value());

    tlb.fill4k(1, 5, 777);
    const auto pfn = tlb.lookup(1, 5);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(*pfn, 777u);
    // Non-hole pages unaffected.
    EXPECT_EQ(*tlb.lookup(1, 6), 1006u);
}

TEST(PerforatedTlb, HoleBitmapHelpers)
{
    HoleBitmap holes{};
    setHole(holes, 0);
    setHole(holes, 63);
    setHole(holes, 64);
    setHole(holes, 511);
    EXPECT_TRUE(isHole(holes, 0));
    EXPECT_TRUE(isHole(holes, 63));
    EXPECT_TRUE(isHole(holes, 64));
    EXPECT_TRUE(isHole(holes, 511));
    EXPECT_FALSE(isHole(holes, 1));
    EXPECT_FALSE(isHole(holes, 65));
}

TEST(PerforatedTlb, AsidsIsolated)
{
    PerforatedTlb tlb({16, 4});
    tlb.fillPerforated(1, 0, 1000, HoleBitmap{});
    EXPECT_FALSE(tlb.lookup(2, 0).has_value());
}

TEST(PerforatedTlb, RegionsEvictLikeEntries)
{
    PerforatedTlb tlb({2, 2});
    tlb.fillPerforated(1, 0, 1000, HoleBitmap{});
    tlb.fillPerforated(1, 512, 2000, HoleBitmap{});
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());
    tlb.fillPerforated(1, 1024, 3000, HoleBitmap{});
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());
    EXPECT_FALSE(tlb.lookup(1, 512).has_value());
}

TEST(PerforatedExperiment, ModerateFragmentationPerforates)
{
    // Coarse 25 % pinning: THP mostly fails, perforation succeeds.
    FragmentationOptions o;
    o.numFrames = 8 * 1024;
    o.pinnedFraction = 0.25;
    o.pinGranularityOrder = 6;
    o.footprintFraction = 0.30;
    o.tlbEntries = 256;
    const FragmentationResult r = runFragmentation(o);
    EXPECT_GT(r.perforatedRegions, r.hugeMappings);
    EXPECT_LT(r.missesPerforated, r.misses4k / 2);
    EXPECT_GT(r.meanHoles, 0.0);
}

TEST(PerforatedExperiment, FineHeavyFragmentationDefeatsPerforation)
{
    FragmentationOptions o;
    o.numFrames = 8 * 1024;
    o.pinnedFraction = 0.5;
    o.pinGranularityOrder = 0;
    o.footprintFraction = 0.30;
    o.tlbEntries = 256;
    const FragmentationResult r = runFragmentation(o);
    // Every window carries ~256 pinned frames, far over the
    // 128-hole budget: no region perforates.
    EXPECT_EQ(r.perforatedRegions, 0u);
    EXPECT_GT(r.perforatedFallbacks, 0u);
    EXPECT_GT(r.missesPerforated, r.misses4k * 95 / 100);
}

} // namespace
} // namespace mosaic
