/**
 * @file
 * Randomized property tests of the iceberg allocation invariants
 * (paper §2.3), run across many random seeds:
 *
 *  - every placed page lands in one of its h = f + d*b hash-chosen
 *    candidate slots (h = 104 with the paper's geometry), and the
 *    CPFN encoding round-trips to the same frame;
 *  - no frame is ever double-mapped;
 *  - utilization never exceeds capacity;
 *  - freeing pages and re-allocating the same pages restores the
 *    frame-table counts exactly;
 *  - the first conflict comes at a high load for every geometry, the
 *    backyard stays small and balanced, and churn at 90 % load
 *    rarely fails an insert;
 *
 * plus the Horizon-LRU equivalence property (paper §2.4), checked
 * against the unbounded OracleVm recency model: the live (non-ghost)
 * pages of a Horizon-LRU MosaicVm are always exactly the L most
 * recently touched distinct pages.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/experiments.hh"
#include "mem/frame_table.hh"
#include "mem/mosaic_allocator.hh"
#include "oracle/oracle_vm.hh"
#include "os/mosaic_vm.hh"
#include "util/random.hh"

namespace mosaic
{
namespace
{

constexpr unsigned numSeeds = 24; // >= 20 random seeds

/** Small paper-geometry memory: 64 buckets = 4096 frames. */
MemoryGeometry
smallGeometry(std::uint64_t seed)
{
    MemoryGeometry g;
    g.numFrames = 64 * g.slotsPerBucket();
    g.hashSeed = experimentCellSeed(0xF00D, seed);
    return g;
}

/** All candidate slots of a page, in (pfn, cpfn) pairs. Slots may
 *  repeat a PFN when two hash choices pick the same bucket. */
std::vector<std::pair<Pfn, Cpfn>>
candidateSlots(const MosaicAllocator &alloc, const CandidateSet &cand)
{
    std::vector<std::pair<Pfn, Cpfn>> slots;
    alloc.forEachCandidate(cand, [&](Pfn pfn, Cpfn cpfn) {
        slots.emplace_back(pfn, cpfn);
    });
    return slots;
}

TEST(IcebergProperties, PlacementsStayInsideCandidateSets)
{
    for (std::uint64_t seed = 0; seed < numSeeds; ++seed) {
        const MemoryGeometry g = smallGeometry(seed);
        MosaicAllocator alloc(g);
        FrameTable frames(g.numFrames);
        const auto no_ghosts = [](const Frame &) { return false; };

        ASSERT_EQ(g.associativity(), 104u); // the paper's h

        Rng rng(experimentCellSeed(seed, 1));
        std::set<Pfn> mapped;
        Tick t = 0;
        for (;;) {
            // Sparse random pages across three address spaces.
            const PageId page{static_cast<Asid>(1 + rng.below(3)),
                              rng()};
            const CandidateSet cand =
                alloc.mapper().candidates(page);
            const auto slots = candidateSlots(alloc, cand);
            ASSERT_EQ(slots.size(), 104u);

            const auto placement =
                alloc.place(cand, frames, no_ghosts);
            if (!placement)
                break; // first associativity conflict: stop

            // The chosen frame is one of the page's hash choices...
            bool in_candidates = false;
            for (const auto &[pfn, cpfn] : slots)
                in_candidates = in_candidates || pfn == placement->pfn;
            ASSERT_TRUE(in_candidates)
                << "seed " << seed << ": frame " << placement->pfn
                << " outside the candidate set";

            // ...the CPFN encoding round-trips to the same frame...
            ASSERT_EQ(alloc.mapper().toPfn(cand, placement->cpfn),
                      placement->pfn);
            ASSERT_EQ(alloc.mapper().toCpfn(cand, placement->pfn),
                      placement->cpfn);

            // ...and the frame was genuinely free (no double-map).
            ASSERT_FALSE(frames.frame(placement->pfn).used);
            ASSERT_TRUE(mapped.insert(placement->pfn).second)
                << "seed " << seed << ": frame " << placement->pfn
                << " double-mapped";

            frames.map(placement->pfn, page, ++t);
            ASSERT_LE(frames.usedFrames(), frames.numFrames());
            ASSERT_LE(frames.utilization(), 1.0);
        }

        // The iceberg fill must get close to full before the first
        // conflict (the paper's ~98 %) — far above what an
        // unbalanced placement would reach.
        EXPECT_GT(frames.utilization(), 0.9) << "seed " << seed;
        EXPECT_EQ(frames.usedFrames(), mapped.size());
    }
}

TEST(IcebergProperties, FreeAndReallocRoundTripRestoresCounts)
{
    for (std::uint64_t seed = 0; seed < numSeeds; ++seed) {
        const MemoryGeometry g = smallGeometry(seed);
        MosaicAllocator alloc(g);
        FrameTable frames(g.numFrames);
        const auto no_ghosts = [](const Frame &) { return false; };

        // Fill to the first conflict, remembering every page.
        Rng rng(experimentCellSeed(seed, 2));
        std::vector<PageId> pages;
        Tick t = 0;
        for (;;) {
            const PageId page{1, rng()};
            const auto placement = alloc.place(
                alloc.mapper().candidates(page), frames, no_ghosts);
            if (!placement)
                break;
            frames.map(placement->pfn, page, ++t);
            pages.push_back(page);
        }
        const std::size_t full = frames.usedFrames();
        ASSERT_EQ(full, pages.size());

        // Free every third page and immediately re-allocate it.
        // Placement is a greedy d-choice policy, so the page may
        // land in a *different* candidate slot than before — but it
        // must always find one (its own vacated slot is free), and
        // each round trip must restore the counts exactly.
        for (std::size_t i = 0; i < pages.size(); i += 3) {
            const CandidateSet cand =
                alloc.mapper().candidates(pages[i]);
            // Find the frame owning this page among its candidates.
            Pfn owner = invalidPfn;
            alloc.forEachCandidate(cand, [&](Pfn pfn, Cpfn) {
                const Frame &f = frames.frame(pfn);
                if (f.used && f.owner == pages[i])
                    owner = pfn;
            });
            ASSERT_NE(owner, invalidPfn) << "seed " << seed;
            frames.unmap(owner);
            ASSERT_EQ(frames.usedFrames(), full - 1);

            const auto placement =
                alloc.place(cand, frames, no_ghosts);
            ASSERT_TRUE(placement.has_value()) << "seed " << seed;
            ASSERT_FALSE(frames.frame(placement->pfn).used);
            frames.map(placement->pfn, pages[i], ++t);
            ASSERT_EQ(frames.usedFrames(), full);
        }
        EXPECT_EQ(frames.usedFrames(), full) << "seed " << seed;
    }
}

TEST(IcebergProperties, OccupiedSlotsAlwaysOwnedByAHashChoice)
{
    // After heavy churn (map/unmap interleaved), every used frame's
    // owner must still list that frame among its candidates.
    for (std::uint64_t seed = 0; seed < numSeeds; ++seed) {
        const MemoryGeometry g = smallGeometry(seed);
        MosaicAllocator alloc(g);
        FrameTable frames(g.numFrames);
        const auto no_ghosts = [](const Frame &) { return false; };

        Rng rng(experimentCellSeed(seed, 3));
        std::vector<std::pair<PageId, Pfn>> live;
        Tick t = 0;
        for (int step = 0; step < 4000; ++step) {
            if (!live.empty() && rng.chance(0.4)) {
                const std::size_t victim = rng.below(live.size());
                frames.unmap(live[victim].second);
                live[victim] = live.back();
                live.pop_back();
                continue;
            }
            const PageId page{1, rng()};
            const auto placement = alloc.place(
                alloc.mapper().candidates(page), frames, no_ghosts);
            if (!placement)
                continue; // conflict under churn: just skip
            frames.map(placement->pfn, page, ++t);
            live.emplace_back(page, placement->pfn);
        }

        for (const auto &[page, pfn] : live) {
            const Frame &f = frames.frame(pfn);
            ASSERT_TRUE(f.used);
            ASSERT_EQ(f.owner.asid, page.asid);
            ASSERT_EQ(f.owner.vpn, page.vpn);
            bool in_candidates = false;
            alloc.forEachCandidate(
                alloc.mapper().candidates(page), [&](Pfn p, Cpfn) {
                    in_candidates = in_candidates || p == pfn;
                });
            ASSERT_TRUE(in_candidates) << "seed " << seed;
        }
        ASSERT_EQ(frames.usedFrames(), live.size());
    }
}

/**
 * The allocator as a bare iceberg table: 64-bit keys placed into a
 * frame table with no ghosts and no evictions, the setting of the
 * paper's §2.3 load analysis.
 */
struct IcebergFill
{
    explicit IcebergFill(const MemoryGeometry &g)
        : alloc(g), frames(g.numFrames)
    {
    }

    /** Place a key; its frame, or nullopt on a conflict. */
    std::optional<Pfn>
    insert(std::uint64_t key)
    {
        const auto placed =
            alloc.place(alloc.mapper().candidates(key), frames);
        if (!placed)
            return std::nullopt;
        frames.map(placed->pfn, PageId{1, key}, ++now);
        return placed->pfn;
    }

    MosaicAllocator alloc;
    FrameTable frames;
    Tick now = 0;
};

/**
 * Load sweep: with paper-like geometry the allocator must reach a
 * high load before the first conflict. The achievable load depends
 * on f, b, d; each tuple carries its expected minimum.
 */
struct GeometryCase
{
    unsigned front;
    unsigned back;
    unsigned choices;
    std::size_t buckets;
    double minLoadBeforeConflict;
};

class IcebergLoadTest : public ::testing::TestWithParam<GeometryCase>
{
};

TEST_P(IcebergLoadTest, HighUtilizationBeforeFirstConflict)
{
    const GeometryCase &c = GetParam();
    MemoryGeometry g;
    g.frontSlots = c.front;
    g.backSlots = c.back;
    g.backChoices = c.choices;
    g.numFrames = c.buckets * g.slotsPerBucket();
    g.hashSeed = 42;
    IcebergFill t(g);

    Rng rng(99);
    while (t.insert(rng())) {
    }
    EXPECT_GE(t.frames.utilization(), c.minLoadBeforeConflict)
        << "f=" << c.front << " b=" << c.back << " d=" << c.choices;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, IcebergLoadTest,
    ::testing::Values(
        // The paper's geometry: conflicts appear near 98 % (§4.2).
        GeometryCase{56, 8, 6, 256, 0.97},
        GeometryCase{56, 8, 6, 1024, 0.97},
        // Fewer choices still do well, but less so.
        GeometryCase{56, 8, 2, 256, 0.90},
        // Bigger backyards push utilization higher.
        GeometryCase{48, 16, 6, 256, 0.97},
        // A small-front geometry leans on the backyard heavily.
        GeometryCase{24, 8, 6, 256, 0.95}));

/** §2.3 theory: the backyard stays small (the front yard absorbs
 *  what it can) and power-of-d keeps backyard buckets balanced. */
TEST(Iceberg, BackyardSmallAndBalanced)
{
    MemoryGeometry g;
    g.numFrames = 1024 * g.slotsPerBucket();
    IcebergFill t(g);
    Rng rng(31337);
    std::size_t in_backyard = 0;
    while (t.frames.utilization() < 0.95) {
        const std::optional<Pfn> pfn = t.insert(rng());
        if (!pfn)
            break;
        if (*pfn % g.slotsPerBucket() >= g.frontSlots)
            ++in_backyard;
    }
    ASSERT_GE(t.frames.utilization(), 0.95);

    // Backyard fraction: bounded by its share of slots, and close
    // to the overflow the front yard cannot hold (95 % of 64 slots
    // = 60.8/bucket; front holds 56; ~4.8/bucket overflow = ~7.9 %).
    const double back_fraction =
        static_cast<double>(in_backyard) /
        static_cast<double>(t.frames.usedFrames());
    EXPECT_LT(back_fraction, 0.125); // never above its slot share
    EXPECT_GT(back_fraction, 0.04);

    // Power-of-6-choices balance: no backyard bucket maxed while
    // others are near-empty. At ~61 % mean backyard occupancy the
    // spread stays tight: min occupancy within 5 of max everywhere.
    unsigned min_occ = g.backSlots, max_occ = 0;
    for (std::size_t b = 0; b < g.numBuckets(); ++b) {
        const unsigned occ = static_cast<unsigned>(
            std::popcount(t.frames.usedWindow(
                b * g.slotsPerBucket() + g.frontSlots, g.backSlots)));
        min_occ = std::min(min_occ, occ);
        max_occ = std::max(max_occ, occ);
    }
    EXPECT_LE(max_occ - min_occ, 5u);
}

/** Deletion mixed with insertion must sustain the same load. */
TEST(Iceberg, ChurnSustainsHighLoad)
{
    MemoryGeometry g;
    g.numFrames = 256 * g.slotsPerBucket();
    IcebergFill t(g);
    Rng rng(123);

    // Live keys and their frames. Fill to 90 %.
    std::vector<std::pair<std::uint64_t, Pfn>> live;
    while (t.frames.utilization() < 0.90) {
        const std::uint64_t k = rng();
        if (const std::optional<Pfn> pfn = t.insert(k))
            live.emplace_back(k, *pfn);
    }
    // Churn 10k times at 90 % occupancy: delete random, insert new.
    std::size_t failures = 0;
    for (int i = 0; i < 10000; ++i) {
        const std::size_t victim = rng.below(live.size());
        t.frames.unmap(live[victim].second);
        const std::uint64_t k = rng();
        if (const std::optional<Pfn> pfn = t.insert(k)) {
            live[victim] = {k, *pfn};
        } else {
            ++failures;
            // Re-insert the erased key (guaranteed to fit: its old
            // slot is free).
            const std::optional<Pfn> back = t.insert(live[victim].first);
            ASSERT_TRUE(back.has_value());
            live[victim].second = *back;
        }
    }
    EXPECT_LT(failures, 100u);
}

/** Live (non-ghost) resident pages of a Mosaic VM, as a set. */
std::set<PageId>
livePages(const MosaicVm &vm)
{
    std::set<PageId> live;
    for (Pfn pfn = 0; pfn < vm.numFrames(); ++pfn) {
        const Frame &f = vm.frameTable().frame(pfn);
        if (f.used && !vm.isGhostFrame(pfn))
            live.insert(f.owner);
    }
    return live;
}

/**
 * Paper §2.4: Horizon LRU never evicts a page an exact global-LRU
 * policy with the same live capacity would keep. Stronger form
 * checked here: at every instant the live set IS the global-LRU live
 * set — the L most recently touched distinct pages, where L is the
 * current live-page count. The ground truth is the unbounded OracleVm
 * (a pure recency tracker that never evicts).
 */
TEST(HorizonLruProperties, LiveSetEqualsGlobalLruTopL)
{
    for (std::uint64_t seed = 0; seed < numSeeds; ++seed) {
        // Tiny memory (32 frames) with a working set about twice its
        // size, so horizon advances and conflict evictions are
        // constant, not rare.
        MosaicVmConfig cfg;
        cfg.geometry.frontSlots = 6;
        cfg.geometry.backSlots = 2;
        cfg.geometry.backChoices = 2;
        cfg.geometry.numFrames = 4 * cfg.geometry.slotsPerBucket();
        cfg.geometry.hashSeed = experimentCellSeed(0xBEEF, seed);
        cfg.policy = EvictionPolicy::HorizonLru;
        cfg.sharing = SharingMode::PageIdHash;
        MosaicVm vm(cfg);
        OracleVm recency{OracleVmConfig{0}}; // unbounded: never evicts

        Rng rng(experimentCellSeed(seed, 4));
        std::uint64_t ghost_transitions = 0;
        std::size_t last_ghosts = 0;
        for (int step = 0; step < 3000; ++step) {
            if (rng.chance(0.04)) {
                const Asid asid = static_cast<Asid>(1 + rng.below(2));
                const Vpn vpn = rng.below(64);
                const std::size_t n = 1 + rng.below(8);
                vm.unmapRange(asid, vpn, n);
                recency.unmapRange(asid, vpn, n);
            } else {
                const Asid asid = static_cast<Asid>(1 + rng.below(2));
                // Hot/cold mix keeps some pages live and churns the
                // rest through ghosthood.
                const Vpn vpn = rng.chance(0.5) ? rng.below(12)
                                                : rng.below(64);
                vm.touch(asid, vpn, rng.chance(0.3));
                recency.touch(asid, vpn, false);
            }

            const std::set<PageId> live = livePages(vm);
            ASSERT_EQ(live.size(),
                      vm.residentPages() - vm.ghostPages())
                << "seed " << seed << " step " << step;

            const auto order = recency.residentByRecency();
            ASSERT_GE(order.size(), live.size());
            std::set<PageId> top_l(order.begin(),
                                   order.begin() + live.size());
            ASSERT_EQ(live, top_l)
                << "seed " << seed << " step " << step
                << ": live set is not the top-" << live.size()
                << " of global recency order";

            if (vm.ghostPages() != last_ghosts)
                ++ghost_transitions;
            last_ghosts = vm.ghostPages();
        }

        // The run must actually have exercised the horizon machinery,
        // or the property above is vacuous.
        EXPECT_GT(vm.horizon(), 0u) << "seed " << seed;
        EXPECT_GT(ghost_transitions, 50u) << "seed " << seed;
        EXPECT_GT(vm.stats().conflicts, 0u) << "seed " << seed;
    }
}

} // namespace
} // namespace mosaic
