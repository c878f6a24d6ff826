/**
 * @file
 * Tests for the baseline (Linux-like) VM: demand paging, watermark
 * behaviour (swapping begins at ~99.2 % utilization, §4.2), global
 * LRU eviction order, and swap accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "oracle/oracle_vm.hh"
#include "os/linux_vm.hh"

namespace mosaic
{
namespace
{

LinuxVmConfig
config(std::size_t frames = 4096)
{
    LinuxVmConfig c;
    c.numFrames = frames;
    return c;
}

TEST(LinuxVm, FirstTouchFaultsAndMaps)
{
    LinuxVm vm(config());
    const Pfn pfn = vm.touch(1, 42, true);
    EXPECT_LT(pfn, vm.numFrames());
    EXPECT_EQ(vm.stats().minorFaults, 1u);
    EXPECT_EQ(vm.residentPages(), 1u);
    EXPECT_EQ(vm.touch(1, 42, false), pfn);
    EXPECT_EQ(vm.stats().minorFaults, 1u);
}

TEST(LinuxVm, ReserveIsAboutZeroPointEightPercent)
{
    LinuxVm vm(config(10000));
    EXPECT_EQ(vm.reserveFrames(), 80u);
}

TEST(LinuxVm, NoSwapUntilWatermark)
{
    LinuxVm vm(config(4096));
    const Vpn below = vm.numFrames() - vm.reserveFrames() - 1;
    for (Vpn vpn = 0; vpn < below; ++vpn)
        vm.touch(1, vpn, true);
    EXPECT_EQ(vm.stats().swapOuts, 0u);
}

TEST(LinuxVm, SwappingBeginsNearNinetyNinePercent)
{
    LinuxVm vm(config(4096));
    for (Vpn vpn = 0; vpn < vm.numFrames() * 2; ++vpn)
        vm.touch(1, vpn, true);
    EXPECT_GT(vm.stats().swapOuts, 0u);
    EXPECT_GE(vm.stats().firstSwapOutUtilization, 0.985);
    EXPECT_LE(vm.stats().firstSwapOutUtilization, 1.0);
}

TEST(LinuxVm, EvictsGlobalLruOrder)
{
    LinuxVmConfig c = config(1024);
    c.reclaimBatch = 4;
    LinuxVm vm(c);
    const std::size_t usable = vm.numFrames() - vm.reserveFrames();

    // Fill to the watermark, then touch page 0 to refresh it.
    for (Vpn vpn = 0; vpn < usable; ++vpn)
        vm.touch(1, vpn, true);
    vm.touch(1, 0, false);

    // Trigger one reclaim batch: pages 1..4 (the LRU ones) go.
    vm.touch(1, 100000, true);
    EXPECT_TRUE(vm.pageTable(1).walk(0).present);
    for (Vpn vpn = 1; vpn <= 4; ++vpn)
        EXPECT_FALSE(vm.pageTable(1).walk(vpn).present) << vpn;
    EXPECT_TRUE(vm.pageTable(1).walk(5).present);
}

TEST(LinuxVm, MajorFaultAfterEviction)
{
    LinuxVm vm(config(1024));
    for (Vpn vpn = 0; vpn < vm.numFrames() * 2; ++vpn)
        vm.touch(1, vpn, true);
    // Page 0 is long gone under a sequential sweep.
    ASSERT_FALSE(vm.pageTable(1).walk(0).present);
    const auto ins_before = vm.stats().swapIns;
    vm.touch(1, 0, false);
    EXPECT_EQ(vm.stats().swapIns, ins_before + 1);
    EXPECT_GT(vm.stats().majorFaults, 0u);
}

TEST(LinuxVm, CleanPagesEvictWithoutWrites)
{
    LinuxVm vm(config(1024));
    const std::size_t n = vm.numFrames();
    // Dirty fill well past memory.
    for (Vpn vpn = 0; vpn < 2 * n; ++vpn)
        vm.touch(1, vpn, true);
    const auto outs_mid = vm.stats().swapOuts;
    // Read-only re-walk: swap-ins bring pages back clean; their
    // subsequent evictions must mostly be write-free.
    for (Vpn vpn = 0; vpn < 2 * n; ++vpn)
        vm.touch(1, vpn, false);
    const auto extra_outs = vm.stats().swapOuts - outs_mid;
    const auto ins = vm.stats().swapIns;
    EXPECT_GT(ins, 0u);
    EXPECT_LT(extra_outs, ins / 2);
}

TEST(LinuxVm, CyclicAccessIsLruWorstCase)
{
    // A cyclic sweep slightly larger than memory defeats LRU: every
    // touch in later passes misses. This is the pathology Table 4's
    // discussion attributes Linux's larger swap counts to.
    LinuxVm vm(config(1024));
    const std::size_t n = vm.numFrames();
    const Vpn cycle = static_cast<Vpn>(n + n / 8);
    for (int pass = 0; pass < 3; ++pass)
        for (Vpn vpn = 0; vpn < cycle; ++vpn)
            vm.touch(1, vpn, false);
    // Pass 2 and 3 fault on essentially every page.
    EXPECT_GT(vm.stats().majorFaults, 2 * (cycle - n) );
    EXPECT_GT(vm.stats().faults(), cycle * 2);
}

TEST(LinuxVm, AsidsShareTheSamePool)
{
    LinuxVm vm(config(1024));
    const Pfn a = vm.touch(1, 7, false);
    const Pfn b = vm.touch(2, 7, false);
    EXPECT_NE(a, b);
    EXPECT_EQ(vm.residentPages(), 2u);
}

TEST(LinuxVm, WorkingSetSmallerThanMemoryStaysResident)
{
    LinuxVm vm(config(1024));
    const Vpn ws = vm.numFrames() / 2;
    for (int pass = 0; pass < 5; ++pass)
        for (Vpn vpn = 0; vpn < ws; ++vpn)
            vm.touch(1, vpn, pass == 0);
    EXPECT_EQ(vm.stats().majorFaults, 0u);
    EXPECT_EQ(vm.stats().swapOuts, 0u);
}

TEST(LinuxVm, UnmapReleasesFrames)
{
    LinuxVm vm(config(1024));
    for (Vpn vpn = 0; vpn < 100; ++vpn)
        vm.touch(1, vpn, true);
    vm.unmapRange(1, 0, 50);
    EXPECT_EQ(vm.residentPages(), 50u);
    EXPECT_EQ(vm.stats().swapOuts, 0u);
    // The freed frames are reusable.
    for (Vpn vpn = 1000; vpn < 1050; ++vpn)
        vm.touch(1, vpn, true);
    EXPECT_EQ(vm.residentPages(), 100u);
}

TEST(LinuxVm, UnmapDropsSwapIdentity)
{
    LinuxVm vm(config(1024));
    for (Vpn vpn = 0; vpn < vm.numFrames() * 2; ++vpn)
        vm.touch(1, vpn, true);
    ASSERT_FALSE(vm.pageTable(1).walk(0).present);
    vm.unmapRange(1, 0, 1);
    const auto majors = vm.stats().majorFaults;
    vm.touch(1, 0, false);
    EXPECT_EQ(vm.stats().majorFaults, majors);
}

/**
 * A repeat touch of the last page touched skips the walk while that
 * page still owns its frame. Page A is touched in runs, and between
 * runs reclaim or unmapRange takes its frame away and another page
 * takes the frame. After every op, the returned frame must be the one
 * A's page table names and hold the page, and the stats, dirty bit
 * and access tick must be the oracle's.
 */
TEST(LinuxVm, RepeatTouchesFollowTheirPageAcrossReclaimAndUnmap)
{
    LinuxVmConfig cfg = config(64);
    cfg.reclaimBatch = 8;
    LinuxVm vm(cfg);
    OracleVm oracle(
        OracleVmConfig{cfg.numFrames, cfg.watermarkFraction,
                       cfg.reclaimBatch});
    const auto check = [&](const char *what) {
        const VmStats &r = vm.stats();
        const VmStats &o = oracle.stats();
        EXPECT_EQ(r.minorFaults, o.minorFaults) << what;
        EXPECT_EQ(r.majorFaults, o.majorFaults) << what;
        EXPECT_EQ(r.swapIns, o.swapIns) << what;
        EXPECT_EQ(r.swapOuts, o.swapOuts) << what;
        EXPECT_EQ(vm.residentPages(), oracle.resident()) << what;
    };
    const auto touch = [&](Asid asid, Vpn vpn, bool write) {
        oracle.touch(asid, vpn, write);
        const Pfn pfn = vm.touch(asid, vpn, write);
        const VanillaWalkResult walk = vm.pageTable(asid).walk(vpn);
        EXPECT_TRUE(walk.present) << vpn;
        EXPECT_EQ(pfn, walk.pfn) << vpn;
        const Frame &f = vm.frameTable().frame(pfn);
        const PageId page{asid, vpn};
        EXPECT_TRUE(f.used && f.owner == page) << vpn;
        EXPECT_EQ(f.dirty, oracle.isDirty(page)) << vpn;
        EXPECT_EQ(f.lastAccess, oracle.lastAccessOf(page)) << vpn;
        check("touch");
        return pfn;
    };
    const Asid a_asid = 1;
    const Vpn a_vpn = 7;
    const auto run_a = [&] {
        const Pfn pfn = touch(a_asid, a_vpn, false);
        EXPECT_EQ(touch(a_asid, a_vpn, true), pfn);
        EXPECT_EQ(touch(a_asid, a_vpn, false), pfn);
        return pfn;
    };

    // Reclaim: fill with other pages until reclaim has freed A's frame
    // and a later fault has taken it.
    Vpn next = 100;
    Pfn frame = run_a();
    for (int round = 0; round < 2; ++round) {
        Pfn taken = invalidPfn;
        for (; taken != frame && next < 1000; ++next)
            taken = touch(2, next, next % 3 == 0);
        ASSERT_EQ(taken, frame) << "round " << round;
        EXPECT_FALSE(oracle.isResident(PageId{a_asid, a_vpn}));
        const std::uint64_t majors = vm.stats().majorFaults;
        frame = run_a();
        EXPECT_EQ(vm.stats().majorFaults, majors + 1); // A was dirty
    }

    // unmapRange: re-touch A right after its frame is freed, and after
    // another page has taken it.
    for (const bool reuse : {false, true}) {
        oracle.unmapRange(a_asid, a_vpn, 1);
        vm.unmapRange(a_asid, a_vpn, 1);
        check("unmap");
        if (reuse) {
            EXPECT_EQ(touch(2, next++, true), frame);
        }
        const std::uint64_t minors = vm.stats().minorFaults;
        frame = run_a();
        EXPECT_EQ(vm.stats().minorFaults, minors + 1);
    }
}

TEST(LinuxVm, DeterministicAcrossInstances)
{
    LinuxVm a(config(512)), b(config(512));
    for (Vpn i = 0; i < 5000; ++i) {
        const Vpn v = (i * 2654435761ull) % 700;
        EXPECT_EQ(a.touch(1, v, i % 2 == 0), b.touch(1, v, i % 2 == 0));
    }
    EXPECT_EQ(a.stats().swapOuts, b.stats().swapOuts);
}

// VirtualMemory::touchBatch's default loop, the one perfbench's
// table4_swap drives both plain VMs through, must equal touch() op by
// op across reclaim.
TEST(LinuxVm, TouchBatchDefaultLoopMatchesScalar)
{
    LinuxVm scalar(config(512)), batched(config(512));
    std::vector<PageTouch> block(100);
    std::vector<Pfn> out(block.size());
    for (Vpn i = 0; i < 5000; i += block.size()) {
        for (std::size_t k = 0; k < block.size(); ++k) {
            const Vpn v = ((i + k) * 2654435761ull) % 700;
            block[k] = PageTouch{1, v, (i + k) % 2 == 0};
        }
        batched.touchBatch(block, out.data());
        for (std::size_t k = 0; k < block.size(); ++k) {
            const PageTouch &t = block[k];
            ASSERT_EQ(out[k], scalar.touch(t.asid, t.vpn, t.write))
                << "op " << i + k;
        }
    }
    EXPECT_GT(scalar.stats().swapOuts, 0u);
    EXPECT_EQ(batched.stats().swapOuts, scalar.stats().swapOuts);
    EXPECT_EQ(batched.stats().majorFaults, scalar.stats().majorFaults);
}

} // namespace
} // namespace mosaic
