/**
 * @file
 * Tests for the frame table: mapping lifecycle, counters, and
 * invariant enforcement.
 */

#include <gtest/gtest.h>

#include "mem/frame_table.hh"

namespace mosaic
{
namespace
{

TEST(FrameTable, StartsEmpty)
{
    FrameTable ft(16);
    EXPECT_EQ(ft.numFrames(), 16u);
    EXPECT_EQ(ft.usedFrames(), 0u);
    EXPECT_DOUBLE_EQ(ft.utilization(), 0.0);
    EXPECT_FALSE(ft.frame(0).used);
}

TEST(FrameTable, MapRecordsOwnerAndTime)
{
    FrameTable ft(16);
    ft.map(3, PageId{7, 42}, 100);
    const Frame &f = ft.frame(3);
    EXPECT_TRUE(f.used);
    EXPECT_TRUE(f.dirty);
    EXPECT_EQ(f.owner.asid, 7);
    EXPECT_EQ(f.owner.vpn, 42u);
    EXPECT_EQ(f.lastAccess, 100u);
    EXPECT_EQ(ft.usedFrames(), 1u);
}

TEST(FrameTable, MapCleanPage)
{
    FrameTable ft(4);
    ft.map(0, PageId{1, 1}, 5, /*dirty=*/false);
    EXPECT_FALSE(ft.frame(0).dirty);
}

TEST(FrameTable, TouchUpdatesTimeAndDirtiness)
{
    FrameTable ft(4);
    ft.map(1, PageId{1, 9}, 10, false);
    ft.touch(1, 20, false);
    EXPECT_EQ(ft.frame(1).lastAccess, 20u);
    EXPECT_FALSE(ft.frame(1).dirty);
    ft.touch(1, 30, true);
    EXPECT_TRUE(ft.frame(1).dirty);
    // Dirtiness is sticky across later reads.
    ft.touch(1, 40, false);
    EXPECT_TRUE(ft.frame(1).dirty);
}

TEST(FrameTable, UnmapClearsFrame)
{
    FrameTable ft(4);
    ft.map(2, PageId{1, 5}, 1);
    ft.unmap(2);
    EXPECT_FALSE(ft.frame(2).used);
    EXPECT_EQ(ft.usedFrames(), 0u);
    // Frame can be mapped again.
    ft.map(2, PageId{2, 6}, 2);
    EXPECT_EQ(ft.frame(2).owner.asid, 2);
}

TEST(FrameTable, HoldsOnlyItsOwnerWhileUsed)
{
    FrameTable ft(8);
    const PageId page{1, 42};
    // A free frame holds nothing, not even the default PageId its
    // owner field is reset to; PFNs past the table answer false.
    EXPECT_FALSE(ft.holds(3, PageId{}));
    EXPECT_FALSE(ft.holds(3, page));
    EXPECT_FALSE(ft.holds(8, page));
    EXPECT_FALSE(ft.holds(invalidPfn, page));
    ft.map(3, page, 1);
    EXPECT_TRUE(ft.holds(3, page));
    EXPECT_FALSE(ft.holds(3, PageId{2, 42}));
    EXPECT_FALSE(ft.holds(3, PageId{1, 43}));
    EXPECT_FALSE(ft.holds(4, page));
    ft.unmap(3);
    EXPECT_FALSE(ft.holds(3, page));
    EXPECT_FALSE(ft.holds(3, ft.frame(3).owner));
}

TEST(FrameTable, UtilizationTracksMappings)
{
    FrameTable ft(10);
    for (Pfn p = 0; p < 5; ++p)
        ft.map(p, PageId{1, p}, p);
    EXPECT_DOUBLE_EQ(ft.utilization(), 0.5);
}

using FrameTableDeathTest = ::testing::Test;

TEST(FrameTableDeathTest, DoubleMapPanics)
{
    FrameTable ft(4);
    ft.map(0, PageId{1, 1}, 1);
    EXPECT_DEATH(ft.map(0, PageId{1, 2}, 2), "occupied");
}

TEST(FrameTableDeathTest, UnmapFreePanics)
{
    FrameTable ft(4);
    EXPECT_DEATH(ft.unmap(0), "free");
}

TEST(FrameTableDeathTest, TouchFreePanics)
{
    FrameTable ft(4);
    EXPECT_DEATH(ft.touch(0, 1, false), "free");
}

TEST(FrameTableDeathTest, OutOfRangePfnThrows)
{
    FrameTable ft(4);
    EXPECT_THROW(ft.frame(4), std::out_of_range);
}

} // namespace
} // namespace mosaic
