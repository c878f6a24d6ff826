/**
 * @file
 * Differential tests for the sharded multi-tenant VM engine
 * (DESIGN.md §17): a one-shard ShardedMosaicVm must be stat-for-stat
 * and placement-for-placement identical to a plain MosaicVm over 24
 * seeds × every eviction policy, and multi-shard machines must
 * preserve the whole-machine conservation invariants checked by the
 * shard oracle. The contract: a sharded machine is N independent
 * MosaicVms built from shardConfig and fed by home shard, touchBatch
 * ≡ scalar touch at any worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/shard_view.hh"
#include "oracle/shard_oracle.hh"
#include "os/mosaic_vm.hh"
#include "os/sharded_vm.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

using namespace mosaic;

namespace
{

MemoryGeometry
tinyGeometry(std::size_t buckets)
{
    MemoryGeometry g;
    g.frontSlots = 6;
    g.backSlots = 2;
    g.backChoices = 2;
    g.numFrames = buckets * g.slotsPerBucket();
    return g;
}

struct OpStream
{
    /** One deterministic multi-tenant op mix: mostly touches with an
     *  overcommitted footprint, and some unmaps. */
    OpStream(std::uint64_t seed, unsigned num_asids, std::uint64_t tocs,
             unsigned arity)
        : rng(seed), numAsids(num_asids), numTocs(tocs), arity(arity)
    {
    }

    template <typename Vm>
    Pfn
    step(Vm &vm)
    {
        const Asid asid = static_cast<Asid>(1 + rng.below(numAsids));
        if (rng.pickWeighted({0.82, 0.12}) == 0) {
            const std::uint64_t mvpn = rng.below(numTocs);
            const Vpn vpn = mvpn * arity + rng.below(arity);
            return vm.touch(asid, vpn, rng.chance(0.35));
        }
        vm.unmapRange(asid, rng.below(numTocs * arity),
                      1 + rng.below(2 * std::uint64_t{arity}));
        return invalidPfn;
    }

    Rng rng;
    unsigned numAsids;
    std::uint64_t numTocs;
    unsigned arity;
};

void
expectStatsEqual(const VmStats &a, const VmStats &b)
{
    EXPECT_EQ(a.minorFaults, b.minorFaults);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
    EXPECT_EQ(a.swapIns, b.swapIns);
    EXPECT_EQ(a.swapOuts, b.swapOuts);
    EXPECT_EQ(a.conflicts, b.conflicts);
    EXPECT_EQ(a.ghostEvictions, b.ghostEvictions);
    EXPECT_EQ(a.ghostRescues, b.ghostRescues);
    EXPECT_EQ(a.firstConflictUtilization, b.firstConflictUtilization);
    EXPECT_EQ(a.firstSwapOutUtilization, b.firstSwapOutUtilization);
    EXPECT_EQ(a.steadyUtilization.count(), b.steadyUtilization.count());
    EXPECT_EQ(a.steadyUtilization.mean(), b.steadyUtilization.mean());
    EXPECT_EQ(a.steadyUtilization.sum(), b.steadyUtilization.sum());
}

ShardedVmConfig
shardedConfig(std::size_t shards, EvictionPolicy policy)
{
    ShardedVmConfig cfg;
    cfg.base.geometry = tinyGeometry(4 * shards);
    cfg.base.arity = 4;
    cfg.base.policy = policy;
    cfg.shards = shards;
    return cfg;
}

} // namespace

TEST(ShardView, RouteIsInRangeAndBalanced)
{
    constexpr std::uint32_t shards = 8;
    std::array<std::size_t, shards> counts{};
    for (std::uint64_t asid = 0; asid < 64 * 1024; ++asid)
        ++counts[shardRoute(asid, shards)];
    for (const std::size_t c : counts) {
        // A strong mix keeps sequential ASIDs near-uniform: each
        // shard should land within 15% of the fair share.
        EXPECT_GT(c, 64 * 1024 / shards * 85 / 100);
        EXPECT_LT(c, 64 * 1024 / shards * 115 / 100);
    }
    for (std::uint64_t key = 0; key < 1000; ++key)
        EXPECT_EQ(shardRoute(key, 1), 0u);
}

TEST(ShardView, PartitionRoundTrips)
{
    const MemoryGeometry g = tinyGeometry(16);
    const PoolPartition part = PoolPartition::split(g, 4);
    EXPECT_EQ(part.framesPerShard, g.numFrames / 4);
    for (Pfn pfn = 0; pfn < g.numFrames; ++pfn) {
        const std::size_t s = part.shardOf(pfn);
        EXPECT_LT(s, 4u);
        EXPECT_EQ(part.toGlobal(s, part.toLocal(pfn)), pfn);
    }
    const MemoryGeometry slice = part.shardGeometry(g, 3);
    EXPECT_EQ(slice.numFrames, part.framesPerShard);
    EXPECT_EQ(slice.hashSeed, g.hashSeed);
}

TEST(ShardViewDeathTest, UnevenSplitIsFatal)
{
    const MemoryGeometry g = tinyGeometry(4);
    EXPECT_DEATH((void)PoolPartition::split(g, 3), "evenly");
    // 4 buckets over 4 shards: each slice has fewer buckets than
    // hash choices, so the per-shard geometry is invalid.
    EXPECT_DEATH((void)PoolPartition::split(g, 4), "buckets");
}

TEST(ShardedVm, OneShardMatchesScalarStatForStat)
{
    constexpr EvictionPolicy policies[] = {EvictionPolicy::HorizonLru,
                                           EvictionPolicy::LocalLru,
                                           EvictionPolicy::ShrunkenCache};
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        for (const EvictionPolicy policy : policies) {
            const ShardedVmConfig cfg = shardedConfig(1, policy);
            MosaicVm scalar(cfg.base);
            ShardedMosaicVm sharded(cfg);
            OpStream a(seed, 3, 40, 4);
            OpStream b(seed, 3, 40, 4);
            for (int i = 0; i < 1500; ++i) {
                const Pfn want = a.step(scalar);
                const Pfn got = b.step(sharded);
                ASSERT_EQ(got, want) << "seed " << seed << " op " << i;
            }
            expectStatsEqual(sharded.stats(), scalar.stats());
            EXPECT_EQ(sharded.residentPages(), scalar.residentPages());
            EXPECT_EQ(sharded.ghostPages(), scalar.ghostPages());
        }
    }
}

TEST(ShardedVm, MultiShardPreservesConservation)
{
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4},
                                     std::size_t{8}}) {
        const ShardedVmConfig cfg =
            shardedConfig(shards, EvictionPolicy::HorizonLru);
        ShardedMosaicVm vm(cfg);
        OpStream ops(7, 12, 30 * shards, 4);
        for (int i = 0; i < 4000; ++i) {
            ops.step(vm);
            if (i % 256 == 255) {
                const auto bad = checkShardConservation(vm);
                ASSERT_FALSE(bad.has_value())
                    << shards << " shards, op " << i << ": " << *bad;
            }
        }
        const auto bad = checkShardConservation(vm);
        ASSERT_FALSE(bad.has_value()) << *bad;
    }
}

namespace
{

/**
 * Two shards; one ASID homed on shard 0 touches twice the whole
 * machine's frames, so its home shard runs dry and conflicts while
 * shard 1 stays empty. Shards never lend frames, so every way of
 * driving this stream through a ShardedMosaicVm must equal two plain
 * MosaicVms built from shardConfig and fed by homeShard.
 */
struct DryHomeShard
{
    DryHomeShard()
        : cfg(shardedConfig(2, EvictionPolicy::HorizonLru)),
          probe(cfg)
    {
        Asid asid = 1;
        while (probe.homeShard(asid) != 0)
            ++asid;
        for (Vpn vpn = 0; vpn < probe.numFrames() * 2; ++vpn)
            stream.push_back(PageTouch{asid, vpn, true});

        for (std::size_t s = 0; s < cfg.shards; ++s) {
            ref.push_back(std::make_unique<MosaicVm>(
                ShardedMosaicVm::shardConfig(cfg, s)));
        }
        want.resize(stream.size());
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const PageTouch &t = stream[i];
            const std::size_t s = probe.homeShard(t.asid);
            want[i] = probe.partition().toGlobal(
                s, ref[s]->touch(t.asid, t.vpn, t.write));
        }
    }

    void
    expectMatchesRef(const ShardedMosaicVm &vm,
                     const std::vector<Pfn> &got) const
    {
        EXPECT_EQ(got, want);
        for (std::size_t s = 0; s < cfg.shards; ++s)
            expectStatsEqual(vm.shard(s).stats(), ref[s]->stats());
        ASSERT_FALSE(checkShardConservation(vm).has_value());
    }

    ShardedVmConfig cfg;
    ShardedMosaicVm probe;
    std::vector<PageTouch> stream;
    std::vector<std::unique_ptr<MosaicVm>> ref;
    std::vector<Pfn> want;
};

} // namespace

TEST(ShardedVm, DryHomeShardMatchesIndependentShards)
{
    const DryHomeShard dry;
    ASSERT_GT(dry.ref[0]->stats().conflicts, 0u);
    ASSERT_EQ(dry.ref[1]->residentPages(), 0u);

    ShardedMosaicVm vm(dry.cfg);
    std::vector<Pfn> got(dry.stream.size());
    for (std::size_t i = 0; i < dry.stream.size(); ++i) {
        const PageTouch &t = dry.stream[i];
        got[i] = vm.touch(t.asid, t.vpn, t.write);
    }
    dry.expectMatchesRef(vm, got);
    EXPECT_EQ(vm.shard(1).residentPages(), 0u);
}

TEST(ShardedVm, DryHomeShardBatchMatchesIndependentShards)
{
    const DryHomeShard dry;
    for (const unsigned workers : {1u, 4u}) {
        ThreadPool pool(workers);
        ShardedMosaicVm vm(dry.cfg);
        std::vector<Pfn> got(dry.stream.size(), invalidPfn);
        parallelFor(pool, 1, [&](std::size_t) {
            for (std::size_t i = 0; i < dry.stream.size(); i += 128) {
                const std::size_t n =
                    std::min<std::size_t>(128, dry.stream.size() - i);
                vm.touchBatch({dry.stream.data() + i, n}, got.data() + i);
            }
        });
        dry.expectMatchesRef(vm, got);
    }
}

TEST(ShardedVm, BatchMatchesScalarLoopAndIsThreadInvariant)
{
    const ShardedVmConfig cfg =
        shardedConfig(4, EvictionPolicy::HorizonLru);
    // Build the touch stream once: overcommitted enough to fault and
    // evict across every shard.
    Rng rng(99);
    std::vector<PageTouch> stream;
    for (int i = 0; i < 3000; ++i) {
        stream.push_back(PageTouch{static_cast<Asid>(1 + rng.below(16)),
                                   rng.below(120), rng.chance(0.3)});
    }

    ShardedMosaicVm scalar(cfg);
    std::vector<Pfn> want(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        want[i] = scalar.touch(stream[i].asid, stream[i].vpn,
                               stream[i].write);
    }

    std::vector<Pfn> serial(stream.size());
    std::vector<Pfn> threaded(stream.size());
    for (const unsigned workers : {1u, 4u}) {
        ThreadPool pool(workers);
        ShardedMosaicVm vm(cfg);
        std::vector<Pfn> &out = workers == 1 ? serial : threaded;
        // Drive through the pool so the engine's parallelFor nests
        // under an explicit worker count.
        parallelFor(pool, 1, [&](std::size_t) {
            for (std::size_t i = 0; i < stream.size(); i += 64) {
                const std::size_t n =
                    std::min<std::size_t>(64, stream.size() - i);
                vm.touchBatch({stream.data() + i, n}, out.data() + i);
            }
        });
        EXPECT_EQ(out, want);
        expectStatsEqual(vm.stats(), scalar.stats());
        ASSERT_FALSE(checkShardConservation(vm).has_value());
    }
    EXPECT_EQ(serial, threaded);
}

TEST(ShardedVm, ShardConfigSlicesPoolAndKeepsHashSeed)
{
    const ShardedVmConfig cfg =
        shardedConfig(4, EvictionPolicy::HorizonLru);
    const MosaicVmConfig s0 = ShardedMosaicVm::shardConfig(cfg, 0);
    const MosaicVmConfig s1 = ShardedMosaicVm::shardConfig(cfg, 1);
    EXPECT_EQ(s0.geometry.numFrames, cfg.base.geometry.numFrames / 4);
    EXPECT_EQ(s1.geometry.numFrames, s0.geometry.numFrames);
    EXPECT_EQ(s1.geometry.hashSeed, cfg.base.geometry.hashSeed);
}
