/**
 * @file
 * Tests for the conventional TLB model: hit/miss logic, LRU
 * replacement, set conflicts, huge pages, ASID isolation, and the
 * set-associative array itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tlb/set_assoc.hh"
#include "tlb/vanilla_tlb.hh"

namespace mosaic
{
namespace
{

TEST(TlbGeometry, SetsComputed)
{
    TlbGeometry g{1024, 4};
    EXPECT_EQ(g.sets(), 256u);
    g.check();
    TlbGeometry full{1024, 1024};
    EXPECT_EQ(full.sets(), 1u);
    full.check();
}

using TlbGeometryDeathTest = ::testing::Test;

TEST(TlbGeometryDeathTest, RejectsBadShapes)
{
    TlbGeometry g{10, 3};
    EXPECT_DEATH(g.check(), "sets");
    TlbGeometry g2{4, 8};
    EXPECT_DEATH(g2.check(), "ways");
}

TEST(VanillaTlb, MissThenHit)
{
    VanillaTlb tlb({16, 4});
    EXPECT_FALSE(tlb.lookup(1, 100).has_value());
    tlb.fill(1, 100, 777);
    const auto pfn = tlb.lookup(1, 100);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(*pfn, 777u);
    EXPECT_EQ(tlb.stats().accesses, 2u);
    EXPECT_EQ(tlb.stats().hits, 1u);
    EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(VanillaTlb, AsidsAreIsolated)
{
    VanillaTlb tlb({16, 4});
    tlb.fill(1, 100, 777);
    EXPECT_FALSE(tlb.lookup(2, 100).has_value());
    tlb.fill(2, 100, 888);
    EXPECT_EQ(*tlb.lookup(1, 100), 777u);
    EXPECT_EQ(*tlb.lookup(2, 100), 888u);
}

TEST(VanillaTlb, LruEvictionWithinSet)
{
    // Fully associative, 4 entries: the least recently used falls
    // out on the 5th fill.
    VanillaTlb tlb({4, 4});
    for (Vpn v = 0; v < 4; ++v)
        tlb.fill(1, v, v);
    // Touch 0 so 1 becomes LRU.
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());
    tlb.fill(1, 99, 99);
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());
    EXPECT_FALSE(tlb.lookup(1, 1).has_value());
    EXPECT_TRUE(tlb.lookup(1, 2).has_value());
    EXPECT_EQ(tlb.stats().evictions, 1u);
}

TEST(VanillaTlb, DirectMappedConflicts)
{
    // Direct-mapped with 4 sets: VPNs 0 and 4 collide.
    VanillaTlb tlb({4, 1});
    tlb.fill(1, 0, 10);
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());
    tlb.fill(1, 4, 14);
    EXPECT_FALSE(tlb.lookup(1, 0).has_value());
    EXPECT_TRUE(tlb.lookup(1, 4).has_value());
    // Non-colliding VPN 1 unaffected.
    tlb.fill(1, 1, 11);
    EXPECT_TRUE(tlb.lookup(1, 1).has_value());
    EXPECT_TRUE(tlb.lookup(1, 4).has_value());
}

TEST(VanillaTlb, HugePageCoversRegion)
{
    VanillaTlb tlb({16, 4});
    // One 2 MiB entry covering VPNs [512, 1024).
    tlb.fillHuge(1, 512, 4096);
    const auto pfn = tlb.lookup(1, 512 + 17);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(*pfn, 4096u + 17);
    // Every page of the region hits through the single entry.
    for (Vpn v = 512; v < 1024; v += 37)
        EXPECT_TRUE(tlb.lookup(1, v).has_value());
    // Outside the region: miss.
    EXPECT_FALSE(tlb.lookup(1, 1024).has_value());
}

TEST(VanillaTlb, HugeAnd4kCoexist)
{
    VanillaTlb tlb({16, 4});
    tlb.fillHuge(1, 512, 4096);
    tlb.fill(1, 3, 33);
    EXPECT_EQ(*tlb.lookup(1, 3), 33u);
    EXPECT_EQ(*tlb.lookup(1, 600), 4096u + (600 - 512));
}

TEST(VanillaTlb, InvalidateDropsEntry)
{
    VanillaTlb tlb({16, 4});
    tlb.fill(1, 7, 70);
    tlb.invalidatePage(1, 7);
    EXPECT_FALSE(tlb.lookup(1, 7).has_value());
    EXPECT_EQ(tlb.stats().invalidations, 1u);
    // Invalidating an absent entry is a no-op.
    tlb.invalidatePage(1, 7);
    EXPECT_EQ(tlb.stats().invalidations, 1u);
}

TEST(VanillaTlb, FlushAsidDropsOnlyThatAsid)
{
    VanillaTlb tlb({16, 4});
    tlb.fill(1, 1, 1);
    tlb.fill(1, 2, 2);
    tlb.fill(2, 3, 3);
    tlb.flushAsid(1);
    EXPECT_FALSE(tlb.lookup(1, 1).has_value());
    EXPECT_FALSE(tlb.lookup(1, 2).has_value());
    EXPECT_TRUE(tlb.lookup(2, 3).has_value());
}

TEST(VanillaTlb, StatsConsistency)
{
    VanillaTlb tlb({8, 2});
    // Five VPNs over 4 sets x 2 ways: everything fits, so steady
    // state is all hits.
    for (Vpn v = 0; v < 100; ++v) {
        if (!tlb.lookup(1, v % 5))
            tlb.fill(1, v % 5, v);
    }
    EXPECT_EQ(tlb.stats().accesses,
              tlb.stats().hits + tlb.stats().misses);
    EXPECT_EQ(tlb.stats().accesses, 100u);
    EXPECT_GT(tlb.stats().hits, 0u);
}

TEST(VanillaTlb, MissRate)
{
    VanillaTlb tlb({8, 2});
    tlb.lookup(1, 1);
    tlb.fill(1, 1, 1);
    tlb.lookup(1, 1);
    EXPECT_DOUBLE_EQ(tlb.stats().missRate(), 0.5);
}

/** Associativity sweep: refilling N distinct VPNs that all map to
 *  the same set only thrashes when ways < N. */
class VanillaAssocTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(VanillaAssocTest, WaysBoundSetThrashing)
{
    const unsigned ways = GetParam();
    VanillaTlb tlb({64, ways});
    const unsigned sets = 64 / ways;
    // K VPNs in the same set.
    const unsigned k = ways + 1;
    // Two passes: second pass hits iff the set can hold all K.
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (unsigned i = 0; i < k; ++i) {
            const Vpn v = Vpn{i} * sets; // same set index 0
            if (!tlb.lookup(1, v))
                tlb.fill(1, v, v);
        }
    }
    // With K = ways + 1 and true LRU, a cyclic pattern always
    // misses.
    EXPECT_EQ(tlb.stats().misses, 2u * k);
}

INSTANTIATE_TEST_SUITE_P(Ways, VanillaAssocTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

/**
 * Differential property test: the TLB's hit/miss decisions against
 * a straightforward reference model of a set-associative LRU cache,
 * over long random access streams and several geometries.
 */
struct DiffCase
{
    unsigned entries;
    unsigned ways;
    Vpn vpnRange;
};

class VanillaDiffTest : public ::testing::TestWithParam<DiffCase>
{
};

TEST_P(VanillaDiffTest, MatchesReferenceLruModel)
{
    const DiffCase &p = GetParam();
    VanillaTlb tlb({p.entries, p.ways});
    const unsigned sets = p.entries / p.ways;

    // Reference: per-set vector of tags, front = LRU.
    std::vector<std::vector<Vpn>> model(sets);

    std::uint64_t state = p.entries * 31 + p.ways;
    auto next = [&] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };

    for (int step = 0; step < 30000; ++step) {
        const Vpn vpn = next() % p.vpnRange;
        auto &set = model[vpn % sets];
        const auto it = std::find(set.begin(), set.end(), vpn);
        const bool model_hit = it != set.end();

        const bool tlb_hit = tlb.lookup(1, vpn).has_value();
        ASSERT_EQ(tlb_hit, model_hit)
            << "step " << step << " vpn " << vpn;

        if (model_hit) {
            set.erase(it);
            set.push_back(vpn);
        } else {
            tlb.fill(1, vpn, vpn + 1000);
            if (set.size() == p.ways)
                set.erase(set.begin());
            set.push_back(vpn);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, VanillaDiffTest,
    ::testing::Values(DiffCase{16, 1, 64}, DiffCase{16, 4, 64},
                      DiffCase{64, 8, 200}, DiffCase{64, 64, 100},
                      DiffCase{128, 2, 300}));

/**
 * SetAssocArray edge cases, run in both lookup modes: the way scan
 * (ways <= 8) and the tag index (ways > 8) must agree exactly on
 * victim selection, duplicate-tag resolution, and eviction order.
 */
class SetAssocModeTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SetAssocModeTest, AllInvalidWaysClaimedBeforeAnyEviction)
{
    const unsigned ways = GetParam();
    SetAssocArray<int> arr({ways, ways}); // one set, fully assoc
    bool evicted = true;
    for (unsigned i = 0; i < ways; ++i) {
        arr.allocate(0, 1000 + i, &evicted);
        EXPECT_FALSE(evicted) << "way " << i;
    }
    EXPECT_EQ(arr.validEntries(), ways);
    arr.allocate(0, 2000, &evicted);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(arr.validEntries(), ways);
}

TEST_P(SetAssocModeTest, InvalidatedWaysReusedLowestFirst)
{
    const unsigned ways = GetParam();
    SetAssocArray<int> arr({ways, ways});
    bool evicted = true;
    for (unsigned i = 0; i < ways; ++i)
        arr.allocate(0, 100 + i, &evicted);

    // Free two middle ways; allocation must claim them in ascending
    // way order with no eviction, even though older *valid* entries
    // exist — invalid always beats LRU.
    ASSERT_TRUE(arr.invalidate(0, 101));
    ASSERT_TRUE(arr.invalidate(0, 103));
    auto &a = arr.allocate(0, 200, &evicted);
    EXPECT_FALSE(evicted);
    auto &b = arr.allocate(0, 201, &evicted);
    EXPECT_FALSE(evicted);
    EXPECT_LT(&a, &b); // lowest invalid way claimed first

    // Set full again: the next allocate evicts the true LRU (the
    // very first fill), not either of the freshly reused ways.
    arr.allocate(0, 202, &evicted);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(arr.peek(0, 100), nullptr);
    EXPECT_NE(arr.peek(0, 200), nullptr);
    EXPECT_NE(arr.peek(0, 201), nullptr);
}

TEST_P(SetAssocModeTest, DuplicateTagsResolveToLowestWay)
{
    const unsigned ways = GetParam();
    SetAssocArray<int> arr({ways, ways});
    bool evicted = true;
    auto &first = arr.allocate(0, 42, &evicted);
    first.payload = 1;
    auto &second = arr.allocate(0, 42, &evicted); // duplicate tag
    second.payload = 2;
    ASSERT_NE(&first, &second);
    EXPECT_EQ(arr.validEntries(), 2u);

    // First-match semantics: both find and peek see the lowest way.
    EXPECT_EQ(arr.peek(0, 42), &first);
    EXPECT_EQ(arr.find(0, 42), &first);

    // Invalidation drops that one and falls back to the survivor.
    ASSERT_TRUE(arr.invalidate(0, 42));
    EXPECT_EQ(arr.peek(0, 42), &second);
    EXPECT_EQ(arr.find(0, 42)->payload, 2);
    ASSERT_TRUE(arr.invalidate(0, 42));
    EXPECT_EQ(arr.peek(0, 42), nullptr);
    EXPECT_FALSE(arr.invalidate(0, 42));
}

TEST_P(SetAssocModeTest, EvictingADuplicateFallsBackToSurvivor)
{
    const unsigned ways = GetParam();
    SetAssocArray<int> arr({ways, ways});
    bool evicted = false;
    auto &dup0 = arr.allocate(0, 7, &evicted); // way 0, oldest
    dup0.payload = 1;
    auto &dup1 = arr.allocate(0, 7, &evicted); // way 1, duplicate
    dup1.payload = 2;
    for (unsigned i = 2; i < ways; ++i)
        arr.allocate(0, 100 + i, &evicted);

    // The set is full; the next allocate evicts way 0 — exactly the
    // entry duplicate lookups resolved to. The survivor must take
    // over in both modes (the tag index rescans the set).
    auto &fresh = arr.allocate(0, 55, &evicted);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(&fresh, &dup0);
    EXPECT_EQ(arr.peek(0, 7), &dup1);
    EXPECT_EQ(arr.find(0, 7)->payload, 2);
}

TEST_P(SetAssocModeTest, FlushResetsVictimSelection)
{
    const unsigned ways = GetParam();
    SetAssocArray<int> arr({ways, ways});
    bool evicted = true;
    for (unsigned i = 0; i < ways; ++i)
        arr.allocate(0, 300 + i, &evicted);
    arr.flush();
    EXPECT_EQ(arr.validEntries(), 0u);
    EXPECT_EQ(arr.peek(0, 300), nullptr);

    // Post-flush allocations start from invalid ways again.
    for (unsigned i = 0; i < ways; ++i) {
        arr.allocate(0, 400 + i, &evicted);
        EXPECT_FALSE(evicted) << "way " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, SetAssocModeTest,
                         ::testing::Values(4u,     // way scan
                                           16u,    // tag index
                                           1024u)); // Fig 6 full assoc

} // namespace
} // namespace mosaic
