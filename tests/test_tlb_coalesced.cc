/**
 * @file
 * Tests for the CoLT-style coalesced TLB: contiguity harvesting,
 * partial runs, per-page invalidation, and the dependence on
 * physical layout that motivates Mosaic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "tlb/coalesced_tlb.hh"

namespace mosaic
{
namespace
{

/** A PTE oracle backed by a map. */
class PteMap
{
  public:
    void map(Vpn vpn, Pfn pfn) { ptes_[vpn] = pfn; }

    std::optional<Pfn>
    operator()(Vpn vpn) const
    {
        const auto it = ptes_.find(vpn);
        return it == ptes_.end() ? std::nullopt
                                 : std::optional<Pfn>(it->second);
    }

  private:
    std::map<Vpn, Pfn> ptes_;
};

TEST(CoalescedTlb, FullyContiguousGroupNeedsOneFill)
{
    CoalescedTlb tlb({16, 4});
    PteMap pt;
    for (Vpn v = 0; v < 8; ++v)
        pt.map(v, 100 + v);

    EXPECT_FALSE(tlb.lookup(1, 0).has_value());
    tlb.fill(1, 0, 100, pt);

    for (Vpn v = 0; v < 8; ++v) {
        const auto pfn = tlb.lookup(1, v);
        ASSERT_TRUE(pfn.has_value()) << v;
        EXPECT_EQ(*pfn, 100 + v);
    }
    EXPECT_EQ(tlb.stats().misses, 1u);
    EXPECT_EQ(tlb.counters().regionFills, 1u);
}

TEST(CoalescedTlb, NonContiguousFramesDoNotCoalesce)
{
    CoalescedTlb tlb({16, 4});
    PteMap pt;
    // Frames scattered: 0->50, 1->99, 2->13 ...
    const Pfn frames[8] = {50, 99, 13, 77, 20, 61, 5, 42};
    for (Vpn v = 0; v < 8; ++v)
        pt.map(v, frames[v]);

    tlb.lookup(1, 0);
    tlb.fill(1, 0, frames[0], pt);
    EXPECT_EQ(*tlb.lookup(1, 0), 50u);
    // Neighbours are not covered: each needs its own miss+fill.
    EXPECT_FALSE(tlb.lookup(1, 1).has_value());
    EXPECT_EQ(tlb.counters().regionFills, 0u);
}

TEST(CoalescedTlb, PartialRunCoalescesOnlyMatchingOffsets)
{
    CoalescedTlb tlb({16, 4});
    PteMap pt;
    // Pages 0..3 contiguous from 200; pages 4..7 contiguous from
    // 500 (a different run).
    for (Vpn v = 0; v < 4; ++v)
        pt.map(v, 200 + v);
    for (Vpn v = 4; v < 8; ++v)
        pt.map(v, 500 + v - 4);

    tlb.fill(1, 0, 200, pt);
    EXPECT_TRUE(tlb.lookup(1, 3).has_value());
    EXPECT_FALSE(tlb.lookup(1, 4).has_value());

    // The group entry already holds an equally good run, so the
    // second run's page is cached as a regular per-page entry and
    // the first run keeps its coverage (no ping-pong).
    tlb.fill(1, 4, 500, pt);
    EXPECT_EQ(*tlb.lookup(1, 4), 500u);
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());
    EXPECT_FALSE(tlb.lookup(1, 7).has_value());
}

TEST(CoalescedTlb, UnmappedNeighboursSkipped)
{
    CoalescedTlb tlb({16, 4});
    PteMap pt;
    pt.map(2, 300);
    pt.map(3, 301);
    tlb.fill(1, 2, 300, pt);
    EXPECT_TRUE(tlb.lookup(1, 2).has_value());
    EXPECT_TRUE(tlb.lookup(1, 3).has_value());
    EXPECT_FALSE(tlb.lookup(1, 0).has_value());
    EXPECT_FALSE(tlb.lookup(1, 4).has_value());
}

TEST(CoalescedTlb, RunNotAlignedToGroupStart)
{
    CoalescedTlb tlb({16, 4});
    PteMap pt;
    // Pages 3..7 map to frames 43..47 (offset-preserving from base
    // 40); pages 0..2 unmapped.
    for (Vpn v = 3; v < 8; ++v)
        pt.map(v, 40 + v);
    tlb.fill(1, 5, 45, pt);
    for (Vpn v = 3; v < 8; ++v)
        EXPECT_TRUE(tlb.lookup(1, v).has_value()) << v;
}

TEST(CoalescedTlb, BasePfnUnderflowHandled)
{
    CoalescedTlb tlb({16, 4});
    PteMap pt;
    // Page 5 maps to frame 2: base would be negative; only the
    // filled page is covered.
    pt.map(5, 2);
    pt.map(6, 3);
    tlb.fill(1, 5, 2, pt);
    EXPECT_TRUE(tlb.lookup(1, 5).has_value());
    EXPECT_FALSE(tlb.lookup(1, 6).has_value());
}

TEST(CoalescedTlb, InvalidateDropsSinglePage)
{
    CoalescedTlb tlb({16, 4});
    PteMap pt;
    for (Vpn v = 0; v < 8; ++v)
        pt.map(v, 100 + v);
    tlb.fill(1, 0, 100, pt);
    tlb.invalidatePage(1, 3);
    EXPECT_FALSE(tlb.lookup(1, 3).has_value());
    EXPECT_TRUE(tlb.lookup(1, 2).has_value());
    EXPECT_TRUE(tlb.lookup(1, 4).has_value());
    EXPECT_EQ(tlb.stats().invalidations, 1u);
}

TEST(CoalescedTlb, AsidsIsolated)
{
    CoalescedTlb tlb({16, 4});
    PteMap pt;
    for (Vpn v = 0; v < 8; ++v)
        pt.map(v, 100 + v);
    tlb.fill(1, 0, 100, pt);
    EXPECT_FALSE(tlb.lookup(2, 0).has_value());
}

TEST(CoalescedTlb, DifferentialAgainstVanillaOnScatteredFrames)
{
    // With zero physical contiguity every fill degenerates to a
    // regular per-page entry, so CoLT must make exactly the same
    // hit/miss decisions as a plain TLB of the same geometry.
    PteMap pt;
    for (Vpn v = 0; v < 4096; ++v)
        pt.map(v, (v * 2654435761ull) % 1000000);

    CoalescedTlb colt({64, 4});
    // Reference: per-set LRU of vpn tags (per-page entries index by
    // vpn in both designs).
    std::vector<std::vector<Vpn>> model(64 / 4);

    std::uint64_t state = 777;
    auto next = [&] {
        state = state * 6364136223846793005ull + 1;
        return state >> 33;
    };
    for (int step = 0; step < 30000; ++step) {
        const Vpn vpn = next() % 4096;
        auto &set = model[vpn % model.size()];
        const auto it = std::find(set.begin(), set.end(), vpn);
        const bool model_hit = it != set.end();
        const bool colt_hit = colt.lookup(1, vpn).has_value();
        ASSERT_EQ(colt_hit, model_hit) << "step " << step;
        if (model_hit) {
            set.erase(it);
            set.push_back(vpn);
        } else {
            colt.fill(1, vpn, *pt(vpn), pt);
            if (set.size() == 4)
                set.erase(set.begin());
            set.push_back(vpn);
        }
    }
    // No coalescing ever happened.
    EXPECT_EQ(colt.counters().regionFills, 0u);
}

TEST(CoalescedTlb, ReachTracksContiguity)
{
    // Sweep 512 pages twice. Fully contiguous frames: 64 fills, all
    // hits on pass 2. Scattered frames: 512 fills.
    PteMap contiguous, scattered;
    for (Vpn v = 0; v < 512; ++v) {
        contiguous.map(v, 1000 + v);
        scattered.map(v, (v * 2654435761ull) % 100000);
    }

    CoalescedTlb tlb_c({128, 8}), tlb_s({128, 8});
    for (int pass = 0; pass < 2; ++pass) {
        for (Vpn v = 0; v < 512; ++v) {
            if (!tlb_c.lookup(1, v))
                tlb_c.fill(1, v, *contiguous(v), contiguous);
            if (!tlb_s.lookup(1, v))
                tlb_s.fill(1, v, *scattered(v), scattered);
        }
    }
    EXPECT_EQ(tlb_c.stats().misses, 64u);
    EXPECT_GE(tlb_s.stats().misses, 512u);
}

} // namespace
} // namespace mosaic
