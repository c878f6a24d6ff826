/**
 * @file
 * Tests for the recency log (the LRU order of used frames, kept as a
 * touch log) and for the two VMs that keep their LRU order in one:
 * staleness after a re-touch, a free or a remap, order-preserving
 * compaction in a bounded log, Horizon LRU's ghost set against the
 * definitional scan under every eviction policy, and LinuxVm's
 * reclaim victims against the reference OracleVm.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "oracle/oracle_vm.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "os/recency_log.hh"
#include "util/random.hh"

namespace mosaic
{
namespace
{

/** A frame table and its recency log, driven one tick per touch the
 *  way a VM drives them. */
struct Frames
{
    explicit Frames(std::size_t n) : table(n), log(n) {}

    void
    map(Pfn pfn)
    {
        table.map(pfn, PageId{1, pfn}, ++now);
        log.append(table, pfn);
    }

    void
    touch(Pfn pfn)
    {
        table.touch(pfn, ++now, false);
        log.append(table, pfn);
    }

    void free(Pfn pfn) { table.unmap(pfn); }

    /** Pop every live entry, least recently used first. */
    std::vector<Pfn>
    drain()
    {
        std::vector<Pfn> order;
        for (Pfn pfn; (pfn = log.popOldest(table)) != invalidPfn;)
            order.push_back(pfn);
        return order;
    }

    FrameTable table;
    RecencyLog log;
    Tick now = 0;
};

using Order = std::vector<Pfn>;

TEST(RecencyLog, StartsEmpty)
{
    Frames f(8);
    EXPECT_EQ(f.log.size(), 0u);
    EXPECT_EQ(f.log.capacity(), 16u);
    EXPECT_EQ(f.log.popOldest(f.table), invalidPfn);
}

TEST(RecencyLog, PopOldestOfEmptyIsInvalid)
{
    // No frame is used, so there is no LRU frame: the log says so
    // with the sentinel, also after every entry went stale.
    Frames f(4);
    f.map(2);
    f.touch(2);
    f.free(2);
    EXPECT_EQ(f.log.size(), 2u);
    EXPECT_EQ(f.log.popOldest(f.table), invalidPfn);
    EXPECT_EQ(f.log.size(), 0u);
}

TEST(RecencyLog, FifoWithoutTouches)
{
    Frames f(8);
    for (const Pfn pfn : {3u, 1u, 7u, 0u})
        f.map(pfn);
    EXPECT_EQ(f.drain(), (Order{3, 1, 7, 0}));
}

TEST(RecencyLog, RetouchMovesToBack)
{
    // The re-touched frame's first entry goes stale; its new one is
    // the newest.
    Frames f(8);
    for (const Pfn pfn : {0u, 1u, 2u})
        f.map(pfn);
    f.touch(0);
    EXPECT_EQ(f.log.size(), 4u);
    EXPECT_EQ(f.drain(), (Order{1, 2, 0}));
}

TEST(RecencyLog, RetouchOfNewestKeepsOrder)
{
    Frames f(8);
    f.map(0);
    f.map(1);
    f.touch(1);
    f.touch(1);
    EXPECT_EQ(f.drain(), (Order{0, 1}));
}

TEST(RecencyLog, FreeMiddleGoesStale)
{
    Frames f(8);
    for (const Pfn pfn : {0u, 1u, 2u})
        f.map(pfn);
    f.free(1);
    EXPECT_EQ(f.drain(), (Order{0, 2}));
}

TEST(RecencyLog, FreeOldestAndNewest)
{
    Frames f(8);
    for (const Pfn pfn : {0u, 1u, 2u, 3u})
        f.map(pfn);
    f.free(0);
    f.free(3);
    EXPECT_EQ(f.drain(), (Order{1, 2}));
}

TEST(RecencyLog, RemapOnLaterTickRejoinsAsNewest)
{
    // A freed frame that is mapped again carries a later tick, so its
    // old entry stays stale even though the frame is used once more.
    Frames f(8);
    for (const Pfn pfn : {0u, 1u, 2u})
        f.map(pfn);
    f.free(0);
    f.map(0);
    EXPECT_EQ(f.drain(), (Order{1, 2, 0}));
}

TEST(RecencyLog, SingleFrameLifecycle)
{
    Frames f(2);
    f.map(1);
    EXPECT_EQ(f.log.popOldest(f.table), 1u);
    // The caller evicts the popped frame.
    f.free(1);
    EXPECT_EQ(f.log.popOldest(f.table), invalidPfn);
    f.map(1);
    EXPECT_EQ(f.drain(), (Order{1}));
}

TEST(RecencyLog, PopOlderThanPassesLiveEntriesBelowHorizon)
{
    Frames f(8);
    for (const Pfn pfn : {0u, 1u, 2u, 3u})
        f.map(pfn); // ticks 1..4
    f.touch(0);     // tick 5; (1, 0) goes stale
    f.free(2);      // (3, 2) goes stale
    Order below;
    f.log.popOlderThan(f.table, 5, [&](Pfn pfn) { below.push_back(pfn); });
    EXPECT_EQ(below, (Order{1, 3}));
    // Entries at or above the horizon stay.
    EXPECT_EQ(f.log.size(), 1u);
    EXPECT_EQ(f.drain(), (Order{0}));
}

TEST(RecencyLog, CompactionUnderChurnMatchesReferenceModel)
{
    // Sustained churn over a few frames forces hundreds of
    // compactions. After every op the log stays within its fixed
    // capacity; every 97 ops its order is read out (and restored by
    // re-touching the frames in that order) and compared with a
    // std::list LRU.
    constexpr std::size_t n = 64;
    Frames f(n);
    std::list<Pfn> model; // front = least recently used
    Rng rng(42);
    for (int step = 0; step < 100000; ++step) {
        const Pfn pfn = rng() % n;
        const auto it = std::find(model.begin(), model.end(), pfn);
        const unsigned op = static_cast<unsigned>(rng() % 10);
        if (it == model.end()) {
            f.map(pfn);
            model.push_back(pfn);
        } else if (op == 0) {
            f.free(pfn);
            model.erase(it);
        } else if (op == 1 && !model.empty()) {
            const Pfn victim = f.log.popOldest(f.table);
            ASSERT_EQ(victim, model.front()) << "step " << step;
            f.free(victim);
            model.pop_front();
        } else {
            f.touch(pfn);
            model.splice(model.end(), model, it);
        }
        ASSERT_LE(f.log.size(), f.log.capacity());
        ASSERT_EQ(f.log.capacity(), 2 * n);
        if (step % 97 == 0) {
            const Order order = f.drain();
            ASSERT_EQ(order, Order(model.begin(), model.end()))
                << "step " << step;
            for (const Pfn p : order)
                f.touch(p);
        }
    }
    EXPECT_EQ(f.drain(), Order(model.begin(), model.end()));
}

using RecencyLogDeathTest = ::testing::Test;

TEST(RecencyLogDeathTest, DoubleAppendAtOneTickPanics)
{
    // Appending a frame twice without a touch between leaves it two
    // live entries; compaction then finds more live entries than
    // frames and stops rather than overrun the log.
    EXPECT_DEATH(
        {
            Frames f(2);
            f.map(0);
            for (int i = 0; i < 8; ++i)
                f.log.append(f.table, 0);
        },
        "more live entries than frames");
}

/** Ghost-set check after every op of a random stream, under each
 *  eviction policy: the VM's incremental ghost bitmap and count
 *  equal the definitional scan `used && lastAccess < horizon`. */
class GhostSetProperty : public ::testing::TestWithParam<EvictionPolicy>
{
};

TEST_P(GhostSetProperty, EqualsBruteForceScanAfterEveryOp)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        MosaicVmConfig c;
        c.geometry.numFrames = 64 * 8;
        c.policy = GetParam();
        c.seed = seed;
        MosaicVm vm(c);
        const std::size_t n = vm.numFrames();
        Rng rng(seed);
        for (int step = 0; step < 6000; ++step) {
            if (rng() % 64 == 0) {
                vm.unmapRange(1, rng() % (4 * n), 1 + rng() % 8);
            } else {
                // Mostly a hot region, often far past capacity:
                // conflicts, rescues, ghost evictions and caps all
                // fire.
                const Vpn vpn =
                    rng() % 4 == 0 ? rng() % (4 * n) : rng() % (n / 2);
                vm.touch(1, vpn, rng() % 2 == 0);
            }
            const FrameTable &ft = vm.frameTable();
            std::size_t ghosts = 0;
            for (Pfn pfn = 0; pfn < n; ++pfn) {
                const Frame &fr = ft.frame(pfn);
                const bool ghost = fr.used && fr.lastAccess < vm.horizon();
                ASSERT_EQ(vm.ghostBits().test(pfn), ghost)
                    << "seed " << seed << " step " << step << " pfn "
                    << pfn;
                ghosts += ghost ? 1 : 0;
            }
            ASSERT_EQ(vm.ghostPages(), ghosts)
                << "seed " << seed << " step " << step;
        }
        if (GetParam() == EvictionPolicy::HorizonLru) {
            EXPECT_GT(vm.stats().ghostRescues, 0u) << "seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, GhostSetProperty,
    ::testing::Values(EvictionPolicy::HorizonLru, EvictionPolicy::LocalLru,
                      EvictionPolicy::ShrunkenCache),
    [](const auto &info) {
        switch (info.param) {
        case EvictionPolicy::HorizonLru:
            return "HorizonLru";
        case EvictionPolicy::LocalLru:
            return "LocalLru";
        case EvictionPolicy::ShrunkenCache:
            return "ShrunkenCache";
        }
        return "Unknown";
    });

TEST(ShrunkenCacheLru, CapEvictsTheGlobalLruPage)
{
    // ShrunkenCache's cap eviction pops the recency log's oldest live
    // frame: it must be the used frame with the smallest lastAccess.
    MosaicVmConfig c;
    c.geometry.numFrames = 64 * 8;
    c.policy = EvictionPolicy::ShrunkenCache;
    MosaicVm vm(c);
    const std::size_t n = vm.numFrames();
    const auto cap = static_cast<std::size_t>(
        static_cast<double>(n) * (1.0 - c.shrinkDelta));
    Rng rng(9);
    std::size_t checked = 0;
    for (int step = 0; step < 6000; ++step) {
        const FrameTable &ft = vm.frameTable();
        const Vpn vpn = rng() % 8 == 0 ? rng() % (4 * n) : rng() % n;
        bool resident = false;
        Pfn lru = invalidPfn;
        for (Pfn pfn = 0; pfn < n; ++pfn) {
            const Frame &fr = ft.frame(pfn);
            if (!fr.used)
                continue;
            resident = resident || fr.owner == PageId{1, vpn};
            if (lru == invalidPfn || fr.lastAccess < ft.frame(lru).lastAccess)
                lru = pfn;
        }
        const bool capped = !resident && ft.usedFrames() >= cap;
        const PageId lru_owner =
            lru == invalidPfn ? PageId{} : ft.frame(lru).owner;
        vm.touch(1, vpn, false);
        if (capped) {
            ++checked;
            const Frame &after = ft.frame(lru);
            ASSERT_FALSE(after.used && after.owner == lru_owner)
                << "step " << step << ": the LRU page survived a cap";
        }
    }
    EXPECT_GT(checked, 500u);
}

TEST(LinuxVmReclaim, VictimsEqualOracleUnderChurnWithUnmaps)
{
    // The same churn, unmapRange included, into LinuxVm and the
    // list-based OracleVm: after every op both hold exactly the same
    // resident pages, so every reclaim picked the same victims.
    for (const std::uint64_t seed : {5u, 6u}) {
        LinuxVmConfig lc;
        lc.numFrames = 256;
        LinuxVm vm(lc);
        OracleVmConfig oc;
        oc.numFrames = lc.numFrames;
        OracleVm oracle(oc);
        Rng rng(seed);
        const Vpn span = 3 * lc.numFrames;
        for (int step = 0; step < 20000; ++step) {
            if (rng() % 50 == 0) {
                const Vpn vpn = rng() % span;
                const std::size_t len = 1 + rng() % 16;
                vm.unmapRange(1, vpn, len);
                oracle.unmapRange(1, vpn, len);
            } else {
                const Vpn vpn = rng() % 4 == 0 ? rng() % span
                                               : rng() % (lc.numFrames);
                const bool write = rng() % 3 == 0;
                vm.touch(1, vpn, write);
                oracle.touch(1, vpn, write);
            }
            ASSERT_EQ(vm.residentPages(), oracle.resident())
                << "seed " << seed << " step " << step;
            ASSERT_EQ(vm.stats().swapOuts, oracle.stats().swapOuts)
                << "seed " << seed << " step " << step;
            for (const PageId id : oracle.residentByRecency()) {
                ASSERT_TRUE(vm.pageTable(1).walk(id.vpn).present)
                    << "seed " << seed << " step " << step;
            }
        }
        EXPECT_GT(vm.stats().swapOuts, 0u);
        EXPECT_EQ(vm.stats().majorFaults, oracle.stats().majorFaults);
    }
}

} // namespace
} // namespace mosaic
