/**
 * @file
 * Tests for the Mosaic TLB (paper §2.1, §3.1): ToC fills covering
 * whole mosaic pages, sub-entry misses and fills, sub-entry
 * invalidation, conventional entries, and reach accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "tlb/mosaic_tlb.hh"

namespace mosaic
{
namespace
{

constexpr Cpfn unmapped = 0x7F;

std::vector<Cpfn>
toc4(Cpfn a, Cpfn b, Cpfn c, Cpfn d)
{
    return {a, b, c, d};
}

TEST(MosaicTlb, MvpnAndOffset)
{
    MosaicTlb tlb({16, 4}, 4);
    EXPECT_EQ(tlb.mvpnOf(0), 0u);
    EXPECT_EQ(tlb.mvpnOf(3), 0u);
    EXPECT_EQ(tlb.mvpnOf(4), 1u);
    EXPECT_EQ(tlb.offsetOf(5), 1u);
    EXPECT_EQ(tlb.offsetOf(7), 3u);
}

TEST(MosaicTlb, FillCoversWholeMosaicPage)
{
    MosaicTlb tlb({16, 4}, 4);
    EXPECT_FALSE(tlb.lookup(1, 8).has_value());
    tlb.fill(1, 8, toc4(10, 11, 12, 13), unmapped);

    // One fill serves all four virtually contiguous pages — the
    // reach gain.
    EXPECT_EQ(*tlb.lookup(1, 8), 10);
    EXPECT_EQ(*tlb.lookup(1, 9), 11);
    EXPECT_EQ(*tlb.lookup(1, 10), 12);
    EXPECT_EQ(*tlb.lookup(1, 11), 13);
    EXPECT_EQ(tlb.stats().misses, 1u);
    EXPECT_EQ(tlb.stats().hits, 4u);
}

TEST(MosaicTlb, UnmappedSubPageIsMissWithSubEntryFill)
{
    MosaicTlb tlb({16, 4}, 4);
    tlb.fill(1, 8, toc4(10, unmapped, 12, 13), unmapped);
    EXPECT_TRUE(tlb.lookup(1, 8).has_value());
    EXPECT_FALSE(tlb.lookup(1, 9).has_value());

    // The miss alone fills nothing: the counter moves only when the
    // refill actually happens.
    EXPECT_EQ(tlb.stats().subEntryFills, 0u);

    // After the OS maps the page, refilling the ToC makes it hit
    // without evicting anything.
    tlb.fill(1, 9, toc4(10, 55, 12, 13), unmapped);
    EXPECT_EQ(tlb.stats().subEntryFills, 1u);
    EXPECT_EQ(*tlb.lookup(1, 9), 55);
    EXPECT_EQ(tlb.stats().evictions, 0u);
}

TEST(MosaicTlb, SubEntryFillsCountFillsNotMisses)
{
    // Regression: lookup used to count a *prospective* sub-entry fill
    // at miss time, so repeated misses on an unmapped sub-page
    // inflated the counter with fills that never happened.
    MosaicTlb tlb({16, 4}, 4);
    tlb.fill(1, 8, toc4(10, unmapped, 12, 13), unmapped);
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(tlb.lookup(1, 9).has_value());
    EXPECT_EQ(tlb.stats().misses, 5u);
    EXPECT_EQ(tlb.stats().subEntryFills, 0u);

    // One refill of the present entry = one sub-entry fill; a fill
    // that allocates a fresh entry is not a sub-entry fill.
    tlb.fill(1, 9, toc4(10, 55, 12, 13), unmapped);
    tlb.fill(1, 16, toc4(20, 21, 22, 23), unmapped);
    EXPECT_EQ(tlb.stats().subEntryFills, 1u);
}

TEST(MosaicTlb, InvalidateSubDropsOnlyOneSubPage)
{
    MosaicTlb tlb({16, 4}, 4);
    tlb.fill(1, 0, toc4(1, 2, 3, 4), unmapped);
    tlb.invalidateSub(1, 2);
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());
    EXPECT_TRUE(tlb.lookup(1, 1).has_value());
    EXPECT_FALSE(tlb.lookup(1, 2).has_value());
    EXPECT_TRUE(tlb.lookup(1, 3).has_value());
    EXPECT_EQ(tlb.stats().invalidations, 1u);
}

TEST(MosaicTlb, LruEvictsWholeEntries)
{
    // Fully associative, 2 entries.
    MosaicTlb tlb({2, 2}, 4);
    tlb.fill(1, 0, toc4(1, 1, 1, 1), unmapped);
    tlb.fill(1, 4, toc4(2, 2, 2, 2), unmapped);
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());  // entry 0 now MRU
    tlb.fill(1, 8, toc4(3, 3, 3, 3), unmapped); // evicts mvpn 1
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());
    EXPECT_FALSE(tlb.lookup(1, 4).has_value());
    EXPECT_TRUE(tlb.lookup(1, 8).has_value());
    EXPECT_EQ(tlb.stats().evictions, 1u);
}

TEST(MosaicTlb, AsidsAreIsolated)
{
    MosaicTlb tlb({16, 4}, 4);
    tlb.fill(1, 0, toc4(1, 2, 3, 4), unmapped);
    EXPECT_FALSE(tlb.lookup(2, 0).has_value());
}

TEST(MosaicTlb, FlushAsid)
{
    MosaicTlb tlb({16, 4}, 4);
    tlb.fill(1, 0, toc4(1, 2, 3, 4), unmapped);
    tlb.fill(2, 0, toc4(5, 6, 7, 8), unmapped);
    tlb.flushAsid(1);
    EXPECT_FALSE(tlb.lookup(1, 0).has_value());
    EXPECT_TRUE(tlb.lookup(2, 0).has_value());
}

TEST(MosaicTlb, ConventionalEntriesCoexist)
{
    MosaicTlb tlb({16, 4}, 4);
    tlb.fill(1, 0, toc4(1, 2, 3, 4), unmapped);
    EXPECT_FALSE(tlb.lookupConventional(1, 100).has_value());
    tlb.fillConventional(1, 100, 4242);
    EXPECT_EQ(*tlb.lookupConventional(1, 100), 4242u);
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());
}

TEST(MosaicTlb, ConventionalAndMosaicTagsDoNotAlias)
{
    MosaicTlb tlb({16, 4}, 4);
    // Conventional VPN 2 must not satisfy mosaic MVPN 2 (VPN 8..11)
    // or vice versa.
    tlb.fillConventional(1, 2, 999);
    EXPECT_FALSE(tlb.lookup(1, 8).has_value());
    tlb.fill(1, 8, toc4(1, 2, 3, 4), unmapped);
    EXPECT_EQ(*tlb.lookupConventional(1, 2), 999u);
}

TEST(MosaicTlb, DuplicateConventionalFillsFirstMatchWins)
{
    // fillConventional always allocates, so refilling the same VPN
    // legitimately creates duplicate tags in a set. Lookups must
    // resolve to the lowest way (the first fill) in both the way-scan
    // (ways <= 8) and tag-index (ways > 8) modes, and a flush must
    // drop every duplicate.
    for (const unsigned ways : {4u, 16u}) {
        MosaicTlb tlb({16, ways}, 4);
        tlb.fillConventional(1, 100, 5);
        tlb.fillConventional(1, 100, 6); // duplicate tag, higher way
        const auto pfn = tlb.lookupConventional(1, 100);
        ASSERT_TRUE(pfn.has_value()) << "ways " << ways;
        EXPECT_EQ(*pfn, 5u) << "ways " << ways;

        tlb.flushAsid(1);
        EXPECT_FALSE(tlb.lookupConventional(1, 100).has_value())
            << "ways " << ways;
        EXPECT_EQ(tlb.stats().invalidations, 2u) << "ways " << ways;
    }
}

TEST(MosaicTlb, IndexedModeClaimsInvalidWaysBeforeEvicting)
{
    // ways > 8 switches the array to the tag index; victim selection
    // must still prefer invalid ways and only evict once the set is
    // genuinely full.
    MosaicTlb tlb({16, 16}, 4); // one fully associative set
    for (unsigned i = 0; i < 16; ++i)
        tlb.fill(1, i * 4, toc4(1, 2, 3, 4), unmapped);
    EXPECT_EQ(tlb.stats().evictions, 0u);
    EXPECT_TRUE(tlb.lookup(1, 0).has_value()); // mvpn 0 now MRU

    tlb.fill(1, 16 * 4, toc4(5, 6, 7, 8), unmapped);
    EXPECT_EQ(tlb.stats().evictions, 1u);
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());   // rescued by the touch
    EXPECT_FALSE(tlb.lookup(1, 4).has_value());  // the LRU victim
    EXPECT_TRUE(tlb.lookup(1, 16 * 4).has_value());
}

TEST(MosaicTlb, ReachScalesWithArity)
{
    // Touch 64 consecutive pages; a mosaic TLB of arity a needs
    // 64/a misses (one per ToC), arity 1 needs 64.
    for (unsigned arity : {1u, 4u, 16u, 64u}) {
        MosaicTlb tlb({16, 16}, arity);
        std::vector<Cpfn> toc(arity, 7);
        for (Vpn v = 0; v < 64; ++v) {
            if (!tlb.lookup(1, v))
                tlb.fill(1, v, toc, unmapped);
        }
        EXPECT_EQ(tlb.stats().misses, 64u / arity) << "arity " << arity;
    }
}

using MosaicTlbDeathTest = ::testing::Test;

TEST(MosaicTlbDeathTest, NonPowerOfTwoArityPanics)
{
    EXPECT_DEATH(MosaicTlb({16, 4}, 3), "power of two");
}

TEST(MosaicTlbDeathTest, OversizedArityPanics)
{
    EXPECT_DEATH(MosaicTlb({16, 4}, 128), "arity range");
}

TEST(MosaicTlbDeathTest, WrongTocSizePanics)
{
    MosaicTlb tlb({16, 4}, 4);
    std::array<Cpfn, 2> short_toc{1, 2};
    EXPECT_DEATH(tlb.fill(1, 0, short_toc, unmapped), "ToC size");
}

/** Parameterized: fill/lookup behaves identically across the
 *  associativity range. */
class MosaicTlbWaysTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MosaicTlbWaysTest, BasicFillLookup)
{
    MosaicTlb tlb({64, GetParam()}, 4);
    for (Vpn base = 0; base < 256; base += 4) {
        std::vector<Cpfn> toc(4, static_cast<Cpfn>(base % 100));
        tlb.fill(1, base, toc, unmapped);
        EXPECT_TRUE(tlb.lookup(1, base).has_value());
    }
    EXPECT_EQ(tlb.stats().accesses, 64u);
}

INSTANTIATE_TEST_SUITE_P(Ways, MosaicTlbWaysTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 64u));

/**
 * Differential property test: the mosaic TLB's hit/miss decisions
 * against a reference model (per-set LRU of MVPN entries holding
 * per-sub-page validity), over random access/fill/invalidate
 * streams.
 */
struct MosaicDiffCase
{
    unsigned entries;
    unsigned ways;
    unsigned arity;
    Vpn vpnRange;
};

class MosaicDiffTest : public ::testing::TestWithParam<MosaicDiffCase>
{
};

TEST_P(MosaicDiffTest, MatchesReferenceModel)
{
    const MosaicDiffCase &p = GetParam();
    MosaicTlb tlb({p.entries, p.ways}, p.arity);
    const unsigned sets = p.entries / p.ways;

    struct RefEntry
    {
        Mvpn mvpn;
        std::vector<bool> valid;
    };
    std::vector<std::vector<RefEntry>> model(sets); // front = LRU

    // The "OS" side: which sub-pages are currently mapped (drives
    // what a ToC fill contains).
    std::vector<bool> mapped(p.vpnRange, false);

    std::uint64_t state = p.entries + p.ways * 131 + p.arity;
    auto next = [&] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };

    auto toc_for = [&](Mvpn mvpn) {
        std::vector<Cpfn> toc(p.arity, unmapped);
        for (unsigned i = 0; i < p.arity; ++i) {
            const Vpn v = mvpn * p.arity + i;
            if (v < p.vpnRange && mapped[v])
                toc[i] = static_cast<Cpfn>(v % 104);
        }
        return toc;
    };

    for (int step = 0; step < 40000; ++step) {
        const Vpn vpn = next() % p.vpnRange;
        const Mvpn mvpn = vpn / p.arity;
        const unsigned off = vpn % p.arity;
        auto &set = model[mvpn % sets];

        const auto entry_it = std::find_if(
            set.begin(), set.end(),
            [&](const RefEntry &e) { return e.mvpn == mvpn; });

        switch (next() % 8) {
          case 7: // invalidate the sub-page
            tlb.invalidateSub(1, vpn);
            if (entry_it != set.end()) {
                entry_it->valid[off] = false;
                // find() touched recency in the real TLB.
                RefEntry moved = *entry_it;
                set.erase(entry_it);
                set.push_back(std::move(moved));
            }
            mapped[vpn] = false;
            break;
          default: { // access
            const bool model_hit =
                entry_it != set.end() && entry_it->valid[off];
            const bool tlb_hit = tlb.lookup(1, vpn).has_value();
            ASSERT_EQ(tlb_hit, model_hit)
                << "step " << step << " vpn " << vpn;

            // A tag-present probe refreshes recency either way.
            if (entry_it != set.end()) {
                RefEntry moved = *entry_it;
                set.erase(std::find_if(set.begin(), set.end(),
                                       [&](const RefEntry &e) {
                                           return e.mvpn == mvpn;
                                       }));
                set.push_back(std::move(moved));
            }
            if (!model_hit) {
                // OS maps the page, then the walker refills the ToC.
                mapped[vpn] = true;
                const std::vector<Cpfn> toc = toc_for(mvpn);
                tlb.fill(1, vpn, toc, unmapped);

                const auto again = std::find_if(
                    set.begin(), set.end(),
                    [&](const RefEntry &e) { return e.mvpn == mvpn; });
                RefEntry fresh{mvpn, {}};
                fresh.valid.resize(p.arity);
                for (unsigned i = 0; i < p.arity; ++i)
                    fresh.valid[i] = toc[i] != unmapped;
                if (again != set.end()) {
                    *again = fresh;
                    RefEntry moved = *again;
                    set.erase(again);
                    set.push_back(std::move(moved));
                } else {
                    if (set.size() == p.ways)
                        set.erase(set.begin());
                    set.push_back(std::move(fresh));
                }
            }
            break;
          }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MosaicDiffTest,
    ::testing::Values(MosaicDiffCase{16, 1, 4, 256},
                      MosaicDiffCase{16, 4, 4, 256},
                      MosaicDiffCase{64, 8, 8, 2048},
                      MosaicDiffCase{32, 32, 16, 2048}));

} // namespace
} // namespace mosaic
