/**
 * @file
 * Differential tests for the batched VM touch pipeline (DESIGN.md
 * §13): for every eviction policy, sharing mode, VM model, block size
 * (including non-power-of-2 sizes and partial tail blocks) and thread
 * count tested, the batched path must be bit-identical to the scalar
 * path — same per-touch PFNs, same stats, same resident/ghost/horizon
 * state.
 */

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_pipeline.hh"
#include "core/vm_touch_sink.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace mosaic
{
namespace
{

constexpr unsigned kSeeds = 24;

/** Block sizes under test: scalar, powers of two, and two
 *  non-power-of-2 sizes; every stream length exercises tails. */
constexpr unsigned kBlocks[] = {1, 7, 32, 64, 100, 128};

std::uint64_t
fnv1a(std::uint64_t digest, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i) {
        digest ^= (value >> (8 * i)) & 0xFF;
        digest *= 0x100000001B3ull;
    }
    return digest;
}

/** A reproducible touch stream with a hot set, a slowly-advancing
 *  cold sweep (forcing faults, evictions, and ghost churn), and a
 *  write mix. Lengths are deliberately not multiples of any tested
 *  block size so tail blocks are always exercised. */
std::vector<PageTouch>
makeStream(std::uint64_t seed, std::size_t ops, std::uint64_t pages,
           Asid asids = 1)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
    std::vector<PageTouch> stream;
    stream.reserve(ops);
    const std::uint64_t hot = std::max<std::uint64_t>(pages / 8, 1);
    std::uint64_t sweep = 0;
    for (std::size_t i = 0; i < ops; ++i) {
        PageTouch t;
        t.asid = static_cast<Asid>(1 + rng.below(asids));
        if (rng.chance(0.6)) {
            t.vpn = rng.below(hot);
        } else {
            t.vpn = sweep % pages;
            sweep += 1 + rng.below(3);
        }
        t.write = rng.chance(0.3);
        stream.push_back(t);
    }
    return stream;
}

/** Everything observable about a VM run, for exact comparison. */
struct VmOutcome
{
    std::uint64_t pfnDigest = 0xcbf29ce484222325ull;
    std::vector<std::pair<std::string, double>> metrics;
    std::size_t resident = 0;

    bool
    operator==(const VmOutcome &o) const
    {
        return pfnDigest == o.pfnDigest && metrics == o.metrics &&
               resident == o.resident;
    }
};

VmOutcome
captureOutcome(const VirtualMemory &vm, std::uint64_t pfn_digest)
{
    VmOutcome out;
    out.pfnDigest = pfn_digest;
    vm.stats().forEachMetric([&](const char *name,
                                 const auto &value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, RunningStat>) {
            const std::string base = name;
            out.metrics.emplace_back(
                base + ".count", static_cast<double>(value.count()));
            out.metrics.emplace_back(base + ".mean", value.mean());
        } else {
            out.metrics.emplace_back(name,
                                     static_cast<double>(value));
        }
    });
    out.resident = vm.residentPages();
    return out;
}

/** Drive @p vm with @p stream: scalar touch() loop when block <= 1,
 *  touchBatch blocks (with a partial tail) otherwise. */
VmOutcome
runStream(VirtualMemory &vm, std::span<const PageTouch> stream,
          unsigned block)
{
    std::uint64_t digest = 0xcbf29ce484222325ull;
    if (block <= 1) {
        for (const PageTouch &t : stream)
            digest = fnv1a(digest, vm.touch(t.asid, t.vpn, t.write));
    } else {
        std::vector<Pfn> pfns(block);
        for (std::size_t i = 0; i < stream.size(); i += block) {
            const std::size_t n =
                std::min<std::size_t>(block, stream.size() - i);
            vm.touchBatch(stream.subspan(i, n), pfns.data());
            for (std::size_t k = 0; k < n; ++k)
                digest = fnv1a(digest, pfns[k]);
        }
    }
    return captureOutcome(vm, digest);
}

MosaicVmConfig
mosaicConfig(std::uint64_t seed, EvictionPolicy policy,
             SharingMode sharing = SharingMode::PageIdHash)
{
    MosaicVmConfig config;
    config.geometry.numFrames = 2048; // 32 buckets of 64
    config.geometry.hashSeed = seed ^ 0xA110C;
    config.policy = policy;
    config.sharing = sharing;
    config.seed = seed;
    return config;
}

/** Append the Mosaic-specific state the generic metrics don't
 *  cover. */
void
addMosaicState(const MosaicVm &vm, VmOutcome &out)
{
    out.metrics.emplace_back("ghostPages",
                             static_cast<double>(vm.ghostPages()));
    out.metrics.emplace_back("horizon",
                             static_cast<double>(vm.horizon()));
    out.metrics.emplace_back("now", static_cast<double>(vm.now()));
}

VmOutcome
mosaicRun(const MosaicVmConfig &config, std::span<const PageTouch> stream,
          unsigned block)
{
    MosaicVm vm(config);
    VmOutcome out = runStream(vm, stream, block);
    addMosaicState(vm, out);
    return out;
}

VmOutcome
mosaicOutcome(std::uint64_t seed, EvictionPolicy policy,
              SharingMode sharing, unsigned block)
{
    // Pressure past capacity: ~1.5x frames, two address spaces.
    const auto stream = makeStream(seed, 6007, 3072, 2);
    return mosaicRun(mosaicConfig(seed, policy, sharing), stream, block);
}

/** One digest of an outcome's PFNs and every metric, bit for bit. */
std::uint64_t
digestOf(const VmOutcome &outcome)
{
    std::uint64_t d = outcome.pfnDigest;
    for (const auto &[name, value] : outcome.metrics) {
        for (const char c : name)
            d = fnv1a(d, static_cast<unsigned char>(c));
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(value));
        __builtin_memcpy(&bits, &value, sizeof(bits));
        d = fnv1a(d, bits);
    }
    return fnv1a(d, outcome.resident);
}

TEST(BatchPipeline, MosaicBitIdenticalAcrossPoliciesAndBlocks)
{
    for (const EvictionPolicy policy :
         {EvictionPolicy::HorizonLru, EvictionPolicy::LocalLru,
          EvictionPolicy::ShrunkenCache}) {
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            const VmOutcome scalar = mosaicOutcome(
                seed, policy, SharingMode::PageIdHash, 1);
            for (const unsigned block : kBlocks) {
                if (block <= 1)
                    continue;
                const VmOutcome batched = mosaicOutcome(
                    seed, policy, SharingMode::PageIdHash, block);
                ASSERT_EQ(scalar, batched)
                    << "policy=" << static_cast<int>(policy)
                    << " seed=" << seed << " block=" << block;
            }
        }
    }
}

TEST(BatchPipeline, LocationIdModeFallsBackToScalarResults)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const VmOutcome scalar = mosaicOutcome(
            seed, EvictionPolicy::HorizonLru, SharingMode::LocationId,
            1);
        for (const unsigned block : {7u, 64u, 128u}) {
            const VmOutcome batched = mosaicOutcome(
                seed, EvictionPolicy::HorizonLru,
                SharingMode::LocationId, block);
            ASSERT_EQ(scalar, batched)
                << "seed=" << seed << " block=" << block;
        }
    }
}

/** Block sizes of the walk-hint tests: the smallest batch, a
 *  non-power of two, and both perf-gated depths. */
constexpr unsigned kHintBlocks[] = {2, 7, 64, 128};

/**
 * How often a stream defeats the walks a batch gathers, measured on a
 * scalar run at @p block: ops whose page was absent when their block
 * began but resident when touched (an earlier op in the block mapped
 * it), ops whose page was resident when the block began but faulted
 * when touched (an earlier op in the block evicted it), and ops whose
 * block-start walk named a frame that holds a different page when the
 * op is applied (an earlier op in the block evicted the page and
 * reused its frame).
 */
struct StaleWalks
{
    std::size_t absentThenMapped = 0;
    std::size_t residentThenEvicted = 0;
    std::size_t residentThenReused = 0;
};

StaleWalks
staleWalks(const MosaicVmConfig &config, std::span<const PageTouch> stream,
           unsigned block)
{
    MosaicVm vm(config);
    StaleWalks out;
    std::vector<Pfn> named(block);
    for (std::size_t base = 0; base < stream.size(); base += block) {
        const std::size_t n =
            std::min<std::size_t>(block, stream.size() - base);
        for (std::size_t k = 0; k < n; ++k) {
            const PageTouch &t = stream[base + k];
            const MosaicWalkResult walk = vm.pageTable(t.asid).walk(t.vpn);
            named[k] = walk.present
                ? vm.allocator().mapper().pfnOf(
                      packPageId(PageId{t.asid, t.vpn}), walk.cpfn)
                : invalidPfn;
        }
        for (std::size_t k = 0; k < n; ++k) {
            const PageTouch &t = stream[base + k];
            const bool present = named[k] != invalidPfn;
            if (present) {
                const Frame &f = vm.frameTable().frame(named[k]);
                out.residentThenReused +=
                    f.used && f.owner != PageId{t.asid, t.vpn};
            }
            const std::uint64_t faults = vm.stats().faults();
            vm.touch(t.asid, t.vpn, t.write);
            const bool faulted = vm.stats().faults() != faults;
            out.absentThenMapped += !present && !faulted;
            out.residentThenEvicted += present && faulted;
        }
    }
    return out;
}

/** Like makeStream, but 40 % of ops re-touch a page one of the last
 *  four ops touched — usually one a fault in the same block just
 *  mapped. */
std::vector<PageTouch>
makeRetouchStream(std::uint64_t seed, std::size_t ops,
                  std::uint64_t pages)
{
    std::vector<PageTouch> stream = makeStream(seed, ops, pages, 2);
    Rng rng(seed ^ 0x5EED);
    for (std::size_t i = 4; i < stream.size(); ++i) {
        if (rng.chance(0.4)) {
            const PageTouch &prev = stream[i - 1 - rng.below(4)];
            stream[i].asid = prev.asid;
            stream[i].vpn = prev.vpn;
        }
    }
    return stream;
}

TEST(BatchPipeline, FaultMapsPageALaterOpInTheBlockTouches)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const MosaicVmConfig config =
            mosaicConfig(seed, EvictionPolicy::HorizonLru);
        const auto stream = makeRetouchStream(seed, 6007, 3072);
        const VmOutcome scalar = mosaicRun(config, stream, 1);
        for (const unsigned block : kHintBlocks) {
            ASSERT_GT(staleWalks(config, stream, block).absentThenMapped,
                      0u)
                << "seed=" << seed << " block=" << block;
            ASSERT_EQ(scalar, mosaicRun(config, stream, block))
                << "seed=" << seed << " block=" << block;
        }
    }
}

/** Eight candidate frames per page in 48 frames: with a working set
 *  a third larger, most faults are Horizon LRU conflicts, and their
 *  victims are soon touched again. */
MosaicVmConfig
conflictConfig(std::uint64_t seed)
{
    MosaicVmConfig config = mosaicConfig(seed, EvictionPolicy::HorizonLru);
    config.geometry.frontSlots = 4;
    config.geometry.backSlots = 2;
    config.geometry.backChoices = 2;
    config.geometry.numFrames = 8 * config.geometry.slotsPerBucket();
    return config;
}

TEST(BatchPipeline, ConflictEvictsPageALaterOpInTheBlockTouches)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const MosaicVmConfig config = conflictConfig(seed);
        const auto stream = makeRetouchStream(seed, 20011, 64);
        const VmOutcome scalar = mosaicRun(config, stream, 1);
        {
            MosaicVm vm(config);
            runStream(vm, stream, 1);
            ASSERT_GT(vm.stats().conflicts, 0u) << "seed=" << seed;
        }
        for (const unsigned block : kHintBlocks) {
            ASSERT_GT(
                staleWalks(config, stream, block).residentThenEvicted, 0u)
                << "seed=" << seed << " block=" << block;
            ASSERT_EQ(scalar, mosaicRun(config, stream, block))
                << "seed=" << seed << " block=" << block;
        }
    }
}

TEST(BatchPipeline, ConflictReusesAWalkedFrameForAnotherPage)
{
    // A walk that named a frame is applied only while the frame still
    // holds the walked page: a frame that is merely in use may have
    // been handed to another page by a conflict earlier in the block.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const MosaicVmConfig config = conflictConfig(seed);
        const auto stream = makeRetouchStream(seed, 20011, 64);
        const VmOutcome scalar = mosaicRun(config, stream, 1);
        for (const unsigned block : kHintBlocks) {
            ASSERT_GT(
                staleWalks(config, stream, block).residentThenReused, 0u)
                << "seed=" << seed << " block=" << block;
            ASSERT_EQ(scalar, mosaicRun(config, stream, block))
                << "seed=" << seed << " block=" << block;
        }
    }
}

/**
 * A LocationId run that interleaves shareRange with touches: ASIDs 1
 * and 2 touch private pages, and now and then one mosaic page of
 * either is shared into a fresh range of ASID 3, whose pages join the
 * stream. Touches between shares go through touchBatch in @p block
 * blocks (scalar touch() when block <= 1). @p shared_hits, when
 * given, counts touches of ASID 3 that found their page resident.
 */
VmOutcome
sharedLocationIdRun(std::uint64_t seed, unsigned block,
                    std::size_t *shared_hits = nullptr)
{
    MosaicVm vm(mosaicConfig(seed, EvictionPolicy::HorizonLru,
                             SharingMode::LocationId));
    constexpr unsigned arity = 4; // MosaicVmConfig's default
    Rng rng(seed * 7919 + 3);
    std::vector<PageTouch> shared;
    std::vector<PageTouch> pending;
    std::vector<Pfn> pfns(std::max(block, 1u));
    std::uint64_t digest = 0xcbf29ce484222325ull;
    const auto flush = [&] {
        if (block > 1) {
            vm.touchBatch(pending, pfns.data());
        } else {
            for (std::size_t k = 0; k < pending.size(); ++k) {
                const PageTouch &t = pending[k];
                const std::uint64_t faults = vm.stats().faults();
                pfns[k] = vm.touch(t.asid, t.vpn, t.write);
                if (shared_hits && t.asid == 3 &&
                        vm.stats().faults() == faults)
                    ++*shared_hits;
            }
        }
        for (std::size_t k = 0; k < pending.size(); ++k)
            digest = fnv1a(digest, pfns[k]);
        pending.clear();
    };
    Vpn next_dst = 0;
    for (std::size_t i = 0; i < 6007; ++i) {
        if (rng.chance(0.01)) {
            flush();
            const Asid src = static_cast<Asid>(1 + rng.below(2));
            const Vpn src_vpn = rng.below(3072 / arity) * arity;
            vm.shareRange(src, src_vpn, 3, next_dst, arity);
            for (unsigned sub = 0; sub < arity; ++sub)
                shared.push_back(PageTouch{3, next_dst + sub, false});
            next_dst += arity;
            continue;
        }
        PageTouch t;
        if (!shared.empty() && rng.chance(0.25)) {
            t = shared[rng.below(shared.size())];
        } else {
            t.asid = static_cast<Asid>(1 + rng.below(2));
            t.vpn = rng.chance(0.6) ? rng.below(384) : rng.below(3072);
        }
        t.write = rng.chance(0.3);
        pending.push_back(t);
        if (pending.size() == pfns.size())
            flush();
    }
    flush();
    VmOutcome out = captureOutcome(vm, digest);
    addMosaicState(vm, out);
    out.metrics.emplace_back(
        "locationBindings", static_cast<double>(vm.locationBindings()));
    out.metrics.emplace_back("locationUsers",
                             static_cast<double>(vm.locationUsers()));
    return out;
}

TEST(BatchPipeline, LocationIdSharedResidentTouchesAreUnchanged)
{
    // digestOf(scalar outcome) per seed, recorded before resident
    // touches decoded one bucket instead of the full candidate set:
    // walk-first touches must not move a single PFN or counter.
    constexpr std::uint64_t pinned[] = {
        1188378061536779148ull,
        13785288545480407936ull,
        18298093326071980436ull,
    };
    for (std::uint64_t seed = 1; seed <= std::size(pinned); ++seed) {
        std::size_t shared_hits = 0;
        const VmOutcome scalar =
            sharedLocationIdRun(seed, 1, &shared_hits);
        EXPECT_GT(shared_hits, 100u) << "seed=" << seed;
        EXPECT_EQ(digestOf(scalar), pinned[seed - 1]) << "seed=" << seed;
        for (const unsigned block : kHintBlocks) {
            ASSERT_EQ(scalar, sharedLocationIdRun(seed, block))
                << "seed=" << seed << " block=" << block;
        }
    }
}

TEST(BatchPipeline, LinuxVmDefaultBatchLoopIsBitIdentical)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        VmOutcome outcomes[2];
        for (const unsigned block : {1u, 100u}) {
            LinuxVmConfig config;
            config.numFrames = 2048;
            LinuxVm vm(config);
            const auto stream = makeStream(seed, 6007, 3072, 2);
            outcomes[block > 1] = runStream(vm, stream, block);
        }
        ASSERT_EQ(outcomes[0], outcomes[1]) << "seed=" << seed;
    }
}

TEST(BatchPipeline, VmTouchSinkFactoryMatchesScalarSink)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto stream = makeStream(seed, 5003, 3072, 1);
        VmOutcome outcomes[2];
        for (const unsigned block : {0u, 64u}) {
            MosaicVm vm(
                mosaicConfig(seed, EvictionPolicy::HorizonLru));
            const auto sink = makeVmTouchSink(vm, 1, block);
            for (const PageTouch &t : stream)
                sink->access(t.vpn * pageSize, t.write);
            sink->flush();
            outcomes[block > 1] = captureOutcome(vm, 0);
        }
        ASSERT_EQ(outcomes[0], outcomes[1]) << "seed=" << seed;
    }
}

TEST(BatchPipeline, DifferentialDigestsAreThreadCountInvariant)
{
    // The batch engines are single-threaded per VM; this pins the
    // surrounding harness pattern (sweeps run cells via parallelFor)
    // to identical results at 1 and 4 workers.
    const auto digests = [](unsigned workers) {
        ThreadPool pool(workers);
        std::vector<std::uint64_t> out(8);
        parallelFor(pool, out.size(), [&](std::size_t i) {
            out[i] = digestOf(
                mosaicOutcome(i + 1, EvictionPolicy::HorizonLru,
                              SharingMode::PageIdHash, 64));
        });
        return out;
    };
    EXPECT_EQ(digests(1), digests(4));
}

TEST(BatchPipeline, EnvKnobParsesAndClamps)
{
    const auto with = [](const char *value) {
        if (value)
            ::setenv("MOSAIC_BATCH", value, 1);
        else
            ::unsetenv("MOSAIC_BATCH");
        return batchBlockFromEnv();
    };
    const char *saved = std::getenv("MOSAIC_BATCH");
    const std::string saved_copy = saved ? saved : "";
    EXPECT_EQ(with(nullptr), 0u);
    EXPECT_EQ(with(""), 0u);
    EXPECT_EQ(with("0"), 0u);
    EXPECT_EQ(with("1"), 0u);
    EXPECT_EQ(with("64"), 64u);
    EXPECT_EQ(with("100"), 100u);
    EXPECT_EQ(with("junk"), 0u);
    EXPECT_EQ(with("64k"), 0u);
    EXPECT_EQ(with("1000000"), maxBatchBlock);
    // Regression: strtoul wrapped "-1" to ULONG_MAX, which then
    // silently clamped to the maximum block size. Signs, trailing
    // junk after digits, embedded spaces, and values past 2^64-1 are
    // all malformed and mean scalar.
    EXPECT_EQ(with("-1"), 0u);
    EXPECT_EQ(with("-64"), 0u);
    EXPECT_EQ(with("+8"), 0u);
    EXPECT_EQ(with("64x"), 0u);
    EXPECT_EQ(with("6 4"), 0u);
    EXPECT_EQ(with(" 64"), 0u);
    EXPECT_EQ(with("18446744073709551616"), 0u); // 2^64 overflows
    with(saved ? saved_copy.c_str() : nullptr);
}

} // namespace
} // namespace mosaic
