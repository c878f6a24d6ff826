/**
 * @file
 * Tests for the mosaic VM: demand paging, placement validity,
 * Horizon LRU semantics (ghosts, rescues, conflicts), swap
 * accounting, and the paper's utilization properties (§4.2).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "os/mosaic_vm.hh"

namespace mosaic
{
namespace
{

MosaicVmConfig
config(std::size_t frames = 64 * 64)
{
    MosaicVmConfig c;
    c.geometry.numFrames = frames;
    return c;
}

TEST(MosaicVm, FirstTouchFaultsAndMaps)
{
    MosaicVm vm(config());
    const Pfn pfn = vm.touch(1, 100, true);
    EXPECT_LT(pfn, vm.numFrames());
    EXPECT_EQ(vm.stats().minorFaults, 1u);
    EXPECT_EQ(vm.residentPages(), 1u);

    // Second touch: no fault, same frame.
    EXPECT_EQ(vm.touch(1, 100, false), pfn);
    EXPECT_EQ(vm.stats().minorFaults, 1u);
}

TEST(MosaicVm, PlacementIsACandidateSlot)
{
    MosaicVm vm(config());
    for (Vpn vpn = 0; vpn < 500; ++vpn) {
        const Pfn pfn = vm.touch(1, vpn, false);
        const CandidateSet cand =
            vm.allocator().mapper().candidates(PageId{1, vpn});
        bool is_candidate = false;
        vm.allocator().forEachCandidate(cand, [&](Pfn p, Cpfn) {
            is_candidate |= p == pfn;
        });
        EXPECT_TRUE(is_candidate) << "vpn " << vpn;
    }
}

TEST(MosaicVm, FrameOwnershipConsistent)
{
    MosaicVm vm(config());
    std::set<Pfn> frames;
    for (Vpn vpn = 0; vpn < 300; ++vpn) {
        const Pfn pfn = vm.touch(1, vpn, false);
        EXPECT_TRUE(frames.insert(pfn).second) << "frame reused";
        const Frame &f = vm.frameTable().frame(pfn);
        EXPECT_EQ(f.owner.vpn, vpn);
        EXPECT_EQ(f.owner.asid, 1);
    }
}

TEST(MosaicVm, DistinctAsidsGetDistinctFrames)
{
    MosaicVm vm(config());
    const Pfn a = vm.touch(1, 7, false);
    const Pfn b = vm.touch(2, 7, false);
    EXPECT_NE(a, b);
}

TEST(MosaicVm, NoConflictsBelowNinetySevenPercent)
{
    MosaicVm vm(config(64 * 64));
    const auto limit =
        static_cast<Vpn>(vm.numFrames() * 97 / 100);
    for (Vpn vpn = 0; vpn < limit; ++vpn)
        vm.touch(1, vpn, true);
    EXPECT_EQ(vm.stats().conflicts, 0u);
    EXPECT_EQ(vm.residentPages(), limit);
    EXPECT_EQ(vm.stats().swapOuts, 0u);
}

TEST(MosaicVm, FirstConflictNearFullMemory)
{
    // Fill far beyond capacity; the first conflict must appear only
    // when memory is nearly full (paper: ~98 %).
    MosaicVm vm(config(64 * 64));
    const Vpn overfill = vm.numFrames() + vm.numFrames() / 4;
    for (Vpn vpn = 0; vpn < overfill; ++vpn)
        vm.touch(1, vpn, true);
    EXPECT_GT(vm.stats().conflicts, 0u);
    EXPECT_GE(vm.stats().firstConflictUtilization, 0.965);
    EXPECT_LE(vm.stats().firstConflictUtilization, 1.0);
}

TEST(MosaicVm, EvictionSwapsOutDirtyPages)
{
    MosaicVm vm(config(64 * 8));
    const Vpn overfill = vm.numFrames() * 2;
    for (Vpn vpn = 0; vpn < overfill; ++vpn)
        vm.touch(1, vpn, true);
    EXPECT_GT(vm.stats().swapOuts, 0u);
    // Find a page that was actually evicted (its mapping is gone)
    // and re-touch it: a major fault with a swap-in.
    Vpn evicted = invalidVpn;
    for (Vpn vpn = 0; vpn < overfill; ++vpn) {
        if (!vm.pageTable(1).walk(vpn).present) {
            evicted = vpn;
            break;
        }
    }
    ASSERT_NE(evicted, invalidVpn);
    const auto majors_before = vm.stats().majorFaults;
    vm.touch(1, evicted, false);
    EXPECT_EQ(vm.stats().majorFaults, majors_before + 1);
    EXPECT_GT(vm.stats().swapIns, 0u);
}

TEST(MosaicVm, CleanReEvictionCostsNoWrite)
{
    MosaicVm vm(config(64 * 8));
    const std::size_t n = vm.numFrames();
    // Pass 1: write everything (overfill slightly to start evicting).
    for (Vpn vpn = 0; vpn < n + n / 2; ++vpn)
        vm.touch(1, vpn, true);
    const auto outs_after_fill = vm.stats().swapOuts;
    EXPECT_GT(outs_after_fill, 0u);

    // Pass 2: read-only cycling over the same range. Pages come back
    // clean from swap and should often be re-evicted without a
    // write.
    for (Vpn vpn = 0; vpn < n + n / 2; ++vpn)
        vm.touch(1, vpn, false);
    const auto ins = vm.stats().swapIns;
    const auto outs = vm.stats().swapOuts;
    EXPECT_GT(ins, 0u);
    // Far fewer writes than reads in the read-only phase.
    EXPECT_LT(outs - outs_after_fill, (ins * 3) / 4);
}

TEST(MosaicVm, GhostRescueCounted)
{
    MosaicVm vm(config(64 * 64));
    const std::size_t n = vm.numFrames();
    // Fill memory, then keep allocating fresh pages until a conflict
    // has raised the horizon far enough that resident ghosts exist.
    Vpn next = 0;
    for (; next < n - 1; ++next)
        vm.touch(1, next, true);
    while (vm.ghostPages() == 0 && next < 3 * n)
        vm.touch(1, next++, true);
    ASSERT_GT(vm.horizon(), 0u);
    ASSERT_GT(vm.ghostPages(), 0u);

    // Touch a resident ghost: Horizon LRU rescues it.
    std::uint64_t rescued_before = vm.stats().ghostRescues;
    bool found = false;
    for (Pfn pfn = 0; pfn < vm.numFrames() && !found; ++pfn) {
        if (vm.isGhostFrame(pfn)) {
            const Frame &f = vm.frameTable().frame(pfn);
            vm.touch(f.owner.asid, f.owner.vpn, false);
            found = true;
        }
    }
    ASSERT_TRUE(found);
    EXPECT_EQ(vm.stats().ghostRescues, rescued_before + 1);
}

TEST(MosaicVm, GhostsAreResidentBelowHorizon)
{
    MosaicVm vm(config(64 * 8));
    const std::size_t n = vm.numFrames();
    for (Vpn vpn = 0; vpn < n * 2; ++vpn)
        vm.touch(1, vpn, true);
    const Tick horizon = vm.horizon();
    EXPECT_GT(horizon, 0u);
    for (Pfn pfn = 0; pfn < vm.numFrames(); ++pfn) {
        const Frame &f = vm.frameTable().frame(pfn);
        if (f.used) {
            EXPECT_EQ(vm.isGhostFrame(pfn), f.lastAccess < horizon);
        }
    }
}

TEST(MosaicVm, UtilizationStaysHighUnderPressure)
{
    MosaicVm vm(config(64 * 8));
    const std::size_t n = vm.numFrames();
    for (Vpn vpn = 0; vpn < n * 2; ++vpn)
        vm.touch(1, vpn, true);
    // Ghost pages keep frames occupied: utilization ~100 % (§4.2).
    EXPECT_GT(vm.frameTable().utilization(), 0.99);
    EXPECT_GT(vm.stats().steadyUtilization.mean(), 0.98);
}

TEST(MosaicVm, EvictedPageIsRemappedOnReturn)
{
    MosaicVm vm(config(64 * 8));
    const std::size_t n = vm.numFrames();
    for (Vpn vpn = 0; vpn < n * 2; ++vpn)
        vm.touch(1, vpn, true);
    // Page 0 must be gone; returning it gives a valid mapping again.
    const Pfn pfn = vm.touch(1, 0, false);
    const Frame &f = vm.frameTable().frame(pfn);
    EXPECT_EQ(f.owner.vpn, 0u);
    const auto walk = vm.pageTable(1).walk(0);
    EXPECT_TRUE(walk.present);
}

TEST(MosaicVm, WorkingSetSmallerThanMemoryStaysResident)
{
    // Cycle a working set of half of memory many times: after the
    // initial faults there must be no further swaps at all.
    MosaicVm vm(config(64 * 8));
    const Vpn ws = vm.numFrames() / 2;
    for (int pass = 0; pass < 5; ++pass)
        for (Vpn vpn = 0; vpn < ws; ++vpn)
            vm.touch(1, vpn, pass == 0);
    EXPECT_EQ(vm.stats().majorFaults, 0u);
    EXPECT_EQ(vm.stats().swapOuts, 0u);
    EXPECT_EQ(vm.stats().minorFaults, ws);
}

TEST(MosaicVm, UnmapReleasesFramesWithoutWriteback)
{
    MosaicVm vm(config(64 * 8));
    for (Vpn vpn = 0; vpn < 100; ++vpn)
        vm.touch(1, vpn, true);
    ASSERT_EQ(vm.residentPages(), 100u);

    vm.unmapRange(1, 20, 30);
    EXPECT_EQ(vm.residentPages(), 70u);
    EXPECT_EQ(vm.stats().swapOuts, 0u); // munmap never writes back
    for (Vpn vpn = 20; vpn < 50; ++vpn)
        EXPECT_FALSE(vm.pageTable(1).walk(vpn).present);
    EXPECT_TRUE(vm.pageTable(1).walk(19).present);
    EXPECT_TRUE(vm.pageTable(1).walk(50).present);

    // Re-touching unmapped pages is a fresh minor fault (the old
    // swap identity is gone).
    const auto majors = vm.stats().majorFaults;
    vm.touch(1, 25, false);
    EXPECT_EQ(vm.stats().majorFaults, majors);
}

TEST(MosaicVm, UnmapDropsSwapCopies)
{
    MosaicVm vm(config(64 * 8));
    const std::size_t n = vm.numFrames();
    // Force page 0 out to swap.
    for (Vpn vpn = 0; vpn < n * 2; ++vpn)
        vm.touch(1, vpn, true);
    ASSERT_FALSE(vm.pageTable(1).walk(0).present);
    // munmap the swapped-out page, then re-touch: minor fault.
    vm.unmapRange(1, 0, 1);
    const auto majors = vm.stats().majorFaults;
    vm.touch(1, 0, false);
    EXPECT_EQ(vm.stats().majorFaults, majors);
}

TEST(MosaicVm, UnmapOfUntouchedRangeIsNoop)
{
    MosaicVm vm(config(64 * 8));
    vm.unmapRange(1, 500, 64);
    EXPECT_EQ(vm.residentPages(), 0u);
}

TEST(MosaicVm, LocalLruPolicyNeverCreatesGhosts)
{
    MosaicVmConfig c = config(64 * 16);
    c.policy = EvictionPolicy::LocalLru;
    MosaicVm vm(c);
    for (Vpn vpn = 0; vpn < vm.numFrames() * 2; ++vpn)
        vm.touch(1, vpn, true);
    EXPECT_EQ(vm.horizon(), 0u);
    EXPECT_EQ(vm.ghostPages(), 0u);
    EXPECT_EQ(vm.stats().ghostEvictions, 0u);
    EXPECT_GT(vm.stats().conflicts, 0u);
    EXPECT_GT(vm.stats().swapOuts, 0u);
}

TEST(MosaicVm, ShrunkenCacheCapsLivePages)
{
    MosaicVmConfig c = config(64 * 16);
    c.policy = EvictionPolicy::ShrunkenCache;
    c.shrinkDelta = 0.05;
    MosaicVm vm(c);
    for (Vpn vpn = 0; vpn < vm.numFrames() * 2; ++vpn)
        vm.touch(1, vpn, true);
    // Live pages never exceed the cap: delta of memory is wasted.
    EXPECT_LE(vm.residentPages(),
              static_cast<std::size_t>(vm.numFrames() * 0.95) + 1);
    EXPECT_GT(vm.stats().swapOuts, 0u);
    // The cap leaves slack, so most evictions are capacity-driven
    // (the w.h.p. no-conflict guarantee is asymptotic; at 16 buckets
    // a noticeable minority of allocations still conflict).
    EXPECT_LT(vm.stats().conflicts, vm.stats().swapOuts / 2);
}

TEST(MosaicVm, HorizonRescuesReduceSwapInsVersusLocalLru)
{
    // A looping working set slightly over memory: Horizon LRU's
    // ghosts rescue re-referenced pages that LocalLru would have
    // swapped. (The property behind Table 4's wins.)
    const std::size_t frames = 64 * 16;
    auto run = [&](EvictionPolicy policy) {
        MosaicVmConfig c = config(frames);
        c.policy = policy;
        MosaicVm vm(c);
        const Vpn cycle = frames + frames / 16;
        for (int pass = 0; pass < 4; ++pass)
            for (Vpn vpn = 0; vpn < cycle; ++vpn)
                vm.touch(1, vpn, false);
        return vm.stats().swapIns + vm.stats().swapOuts;
    };
    EXPECT_LE(run(EvictionPolicy::HorizonLru),
              run(EvictionPolicy::LocalLru));
}

TEST(MosaicVm, GhostCountMatchesScanAcrossSeeds)
{
    // Regression: ghostPages() used to rescan every frame; it is now
    // maintained incrementally. Check the counter against the
    // definitional scan at many points of randomized histories that
    // exercise conflicts, rescues, ghost evictions, and unmaps.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        MosaicVm vm(config(64 * 8));
        const std::size_t n = vm.numFrames();
        std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
        auto next = [&] {
            state = state * 6364136223846793005ull +
                    1442695040888963407ull;
            return state >> 33;
        };
        auto scan = [&] {
            std::size_t count = 0;
            for (Pfn pfn = 0; pfn < n; ++pfn)
                count += vm.isGhostFrame(pfn) ? 1 : 0;
            return count;
        };
        for (int step = 0; step < 6000; ++step) {
            if (next() % 64 == 0) {
                vm.unmapRange(1, next() % (2 * n), 1 + next() % 8);
            } else {
                // Skewed towards a hot region to mix rescues with
                // fresh allocations past capacity.
                const Vpn vpn = next() % 8 == 0 ? next() % (2 * n)
                                                : next() % (n / 2);
                vm.touch(1, vpn, next() % 2 == 0);
            }
            if (step % 251 == 0) {
                ASSERT_EQ(vm.ghostPages(), scan())
                    << "seed " << seed << " step " << step;
            }
        }
        EXPECT_EQ(vm.ghostPages(), scan()) << "seed " << seed;
        EXPECT_GT(vm.horizon(), 0u) << "history never raised horizon";
    }
}

/** One op of the repeat-touch test: a touch, or an unmap of one page. */
struct HintOp
{
    bool unmap = false;
    Asid asid = 0;
    Vpn vpn = 0;
    bool write = false;
};

/**
 * Replay @p ops on a fresh VM, each run of touches as one touchBatch
 * block, and return the last op's PFN (invalidPfn after an unmap) and
 * the VM's stats. touchBatch checks each walk it gathered against its
 * frame, so this replays resident touches without the scalar hint.
 */
std::pair<Pfn, VmStats>
batchReplay(const MosaicVmConfig &config, const std::vector<HintOp> &ops)
{
    MosaicVm vm(config);
    std::vector<PageTouch> block;
    std::vector<Pfn> out;
    Pfn last = invalidPfn;
    const auto flush = [&] {
        out.resize(block.size());
        vm.touchBatch(block, out.data());
        if (!out.empty())
            last = out.back();
        block.clear();
    };
    for (const HintOp &op : ops) {
        if (op.unmap) {
            flush();
            vm.unmapRange(op.asid, op.vpn, 1);
            last = invalidPfn;
        } else {
            block.push_back(PageTouch{op.asid, op.vpn, op.write});
        }
    }
    flush();
    return {last, vm.stats()};
}

/**
 * A repeat touch of the last page touched skips the walk while that
 * page still owns its frame. Under the batch-pipeline tests' conflict
 * geometry (eight candidate frames per page in 48), page A is touched
 * in runs; between runs a conflict evicts A and hands its frame to
 * another page, or unmapRange frees it and another page may take it.
 * After every op, the PFN and stats must equal a touchBatch replay's,
 * and the frame must be the one A's CPFN names and hold the page.
 */
TEST(MosaicVm, RepeatTouchesFollowTheirPageAcrossConflictAndUnmap)
{
    MosaicVmConfig cfg;
    cfg.geometry.frontSlots = 4;
    cfg.geometry.backSlots = 2;
    cfg.geometry.backChoices = 2;
    cfg.geometry.numFrames = 8 * cfg.geometry.slotsPerBucket();
    MosaicVm vm(cfg);
    std::vector<HintOp> ops;
    const auto check = [&](Pfn pfn) {
        const auto [replay_pfn, replay] = batchReplay(cfg, ops);
        const VmStats &r = vm.stats();
        EXPECT_EQ(pfn, replay_pfn) << "op " << ops.size();
        EXPECT_EQ(r.minorFaults, replay.minorFaults);
        EXPECT_EQ(r.majorFaults, replay.majorFaults);
        EXPECT_EQ(r.swapIns, replay.swapIns);
        EXPECT_EQ(r.swapOuts, replay.swapOuts);
        EXPECT_EQ(r.conflicts, replay.conflicts);
        EXPECT_EQ(r.ghostEvictions, replay.ghostEvictions);
        EXPECT_EQ(r.ghostRescues, replay.ghostRescues);
    };
    const auto touch = [&](Asid asid, Vpn vpn, bool write) {
        ops.push_back(HintOp{false, asid, vpn, write});
        const Pfn pfn = vm.touch(asid, vpn, write);
        const PageId page{asid, vpn};
        const MosaicWalkResult walk = vm.pageTable(asid).walk(vpn);
        EXPECT_TRUE(walk.present) << vpn;
        EXPECT_EQ(vm.allocator().mapper().pfnOf(packPageId(page),
                                                walk.cpfn),
                  pfn)
            << vpn;
        EXPECT_TRUE(vm.frameTable().holds(pfn, page)) << vpn;
        check(pfn);
        return pfn;
    };
    const auto unmap = [&](Asid asid, Vpn vpn) {
        ops.push_back(HintOp{true, asid, vpn, false});
        vm.unmapRange(asid, vpn, 1);
        check(invalidPfn);
    };
    const PageId a{1, 7};
    const auto run_a = [&] {
        const Pfn pfn = touch(a.asid, a.vpn, false);
        EXPECT_EQ(touch(a.asid, a.vpn, true), pfn);
        EXPECT_EQ(touch(a.asid, a.vpn, false), pfn);
        return pfn;
    };

    // A conflict evicts A and places the faulting page in its frame.
    Vpn next = 100;
    Pfn frame = run_a();
    for (; next < 1000 && vm.frameTable().holds(frame, a); ++next) {
        const std::uint64_t conflicts = vm.stats().conflicts;
        const Pfn pfn = touch(2, next, next % 3 == 0);
        if (!vm.frameTable().holds(frame, a)) {
            ASSERT_EQ(pfn, frame);
            ASSERT_EQ(vm.stats().conflicts, conflicts + 1);
        }
    }
    ASSERT_FALSE(vm.frameTable().holds(frame, a));
    const std::uint64_t majors = vm.stats().majorFaults;
    frame = run_a();
    EXPECT_EQ(vm.stats().majorFaults, majors + 1); // A was dirty

    // Unmap A, then re-touch it at once; unmap it again and let other
    // pages fault until one takes its frame, then re-touch it.
    unmap(a.asid, a.vpn);
    frame = run_a();
    unmap(a.asid, a.vpn);
    Pfn taken = invalidPfn;
    for (; taken != frame && next < 2000; ++next)
        taken = touch(3, next, true);
    ASSERT_EQ(taken, frame);
    run_a();
}

TEST(MosaicVm, DeterministicAcrossInstances)
{
    MosaicVm a(config(64 * 8)), b(config(64 * 8));
    for (Vpn vpn = 0; vpn < 3000; ++vpn) {
        const Vpn v = (vpn * 7919) % 2000;
        EXPECT_EQ(a.touch(1, v, v % 3 == 0), b.touch(1, v, v % 3 == 0));
    }
    EXPECT_EQ(a.stats().swapOuts, b.stats().swapOuts);
    EXPECT_EQ(a.stats().conflicts, b.stats().conflicts);
}

} // namespace
} // namespace mosaic
