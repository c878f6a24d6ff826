/**
 * @file
 * tenants_churn: a ShardedMosaicVm on the paper's 1 Mi-frame pool,
 * demand-paged by 4,096 hash-routed ASIDs to 1.15x the pool, then
 * hot/cold churn, all through touchBatch. The benchmark generates
 * the touch stream from the seed; no workload engine runs.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.hh"
#include "mem/geometry.hh"
#include "mem/mosaic_mapper.hh"
#include "oracle/shard_oracle.hh"
#include "os/sharded_vm.hh"
#include "util/random.hh"

namespace perfbench
{

using namespace mosaic;

namespace
{

constexpr std::size_t shards = 8;
constexpr std::size_t asids = 4096;
constexpr std::size_t block = 8192;

/** The paper's pool, rounded up to split evenly into shards. */
ShardedVmConfig
machineConfig(std::uint64_t seed)
{
    MemoryGeometry g;
    const std::size_t align = shards * g.slotsPerBucket();
    g.numFrames = (MemoryGeometry::paperLinuxPool().numFrames + align - 1) /
                  align * align;
    g.hashSeed = seed ^ 0xA110C;
    ShardedVmConfig config;
    config.base.geometry = g;
    config.base.seed = seed;
    config.shards = shards;
    return config;
}

/**
 * Fill: every tenant demand-maps its whole range, one tenant after
 * another, 1.15x the pool in total. Churn: 2x the pool in random
 * touches, 80% inside each tenant's hot front quarter, 30% writes.
 */
std::vector<PageTouch>
touchStream(std::size_t frames, std::uint64_t seed)
{
    const std::size_t pages_per_asid =
        std::max<std::size_t>(16, frames * 23 / 20 / asids);
    const std::size_t churn = 2 * frames;
    std::vector<PageTouch> stream;
    stream.reserve(asids * pages_per_asid + churn);
    for (std::size_t a = 1; a <= asids; ++a) {
        for (std::size_t p = 0; p < pages_per_asid; ++p)
            stream.push_back(PageTouch{static_cast<Asid>(a), Vpn{p}, true});
    }
    Rng rng(seed);
    const std::size_t hot = std::max<std::size_t>(1, pages_per_asid / 4);
    for (std::size_t i = 0; i < churn; ++i) {
        const auto asid = static_cast<Asid>(1 + rng.below(asids));
        const std::size_t span = rng.chance(0.8) ? hot : pages_per_asid;
        stream.push_back(
            PageTouch{asid, Vpn{rng.below(span)}, rng.chance(0.3)});
    }
    return stream;
}

/** FNV digest of a finished round: every returned PFN (folded in
 *  as blocks complete) plus the final machine stats. */
std::vector<std::uint64_t>
finalOutputs(std::uint64_t pfn_digest, const ShardedMosaicVm &vm)
{
    const VmStats &s = vm.stats();
    const ShardCounters &c = vm.counters();
    std::vector<std::uint64_t> out = {
        s.minorFaults,     s.majorFaults,  s.swapIns,
        s.swapOuts,        s.conflicts,    s.recoveredConflicts,
        s.ghostEvictions,  s.ghostRescues, c.steals,
        c.deferredBatchOps, vm.residentPages(), vm.forwardEntries()};
    std::uint64_t digest = pfn_digest;
    for (std::uint64_t v : out)
        fnvMix(digest, v);
    out.insert(out.begin(), digest);
    return out;
}

std::uint64_t
imbalancePermille(const ShardedMosaicVm &vm)
{
    std::uint64_t max_resident = 0, sum_resident = 0;
    for (std::size_t s = 0; s < vm.numShards(); ++s) {
        const std::uint64_t r = vm.shard(s).residentPages();
        max_resident = std::max(max_resident, r);
        sum_resident += r;
    }
    return sum_resident == 0
               ? 0
               : 1000 * max_resident * vm.numShards() / sum_resident;
}

/** hash: candidate sets of every touched page, computed by its home
 *  shard's mapper in per-shard blocks. */
double
candidateNs(const ShardedVmConfig &config,
            const std::vector<PageTouch> &stream, Tracer &tracer)
{
    std::vector<MosaicMapper> mappers;
    for (std::size_t s = 0; s < shards; ++s)
        mappers.emplace_back(
            ShardedMosaicVm::shardConfig(config, s).geometry);
    std::vector<std::vector<std::uint64_t>> keys(shards);
    std::vector<CandidateSet> cands(block);
    const auto drain = [&](std::size_t s) {
        ScopedSpan span(&tracer, "hash.candidatesMany");
        mappers[s].candidatesMany(keys[s], cands.data());
        keys[s].clear();
    };
    for (const PageTouch &t : stream) {
        const std::size_t s =
            shardRoute(t.asid, static_cast<std::uint32_t>(shards));
        keys[s].push_back(packPageId(PageId{t.asid, t.vpn}));
        if (keys[s].size() == block)
            drain(s);
    }
    for (std::size_t s = 0; s < shards; ++s) {
        if (!keys[s].empty())
            drain(s);
    }
    return 1e9 * tracer.totalSeconds("hash.candidatesMany") /
           static_cast<double>(stream.size());
}

} // namespace

RunResult
runTenantsChurn(const Options &opts, Tracer *tracer)
{
    RunResult result;
    const ShardedVmConfig config = machineConfig(opts.seed);
    const std::size_t frames = config.base.geometry.numFrames;

    // The input: generated once, outside every timed phase.
    const std::vector<PageTouch> stream = touchStream(frames, opts.seed);

    RoundLog log(opts);
    std::vector<std::uint64_t> outputs;
    std::vector<Pfn> pfns(block);
    std::uint64_t steals = 0, deferred = 0, forwards = 0, imbalance = 0;
    double resident_frac = 0.0;
    while (log.more()) {
        // Set-up: the machine.
        const std::int64_t setup_start = nowNs();
        ShardedMosaicVm vm(config);
        const double setup_s = secondsSince(setup_start);

        // Timed: only the touchBatch calls.
        const bool traced = log.nextTraced();
        Tracer *t = traced ? tracer : nullptr;
        const std::int32_t round_span =
            t ? t->open("tenants.round") : Tracer::noParent;
        std::uint64_t digest = fnvBasis;
        std::int64_t timed_ns = 0;
        for (std::size_t i = 0; i < stream.size(); i += block) {
            const std::size_t n = std::min(block, stream.size() - i);
            const std::int64_t start = nowNs();
            vm.touchBatch({stream.data() + i, n}, pfns.data());
            const std::int64_t end = nowNs();
            timed_ns += end - start;
            if (t)
                t->record("os.sharded.touchBatch", start, end, round_span);
            for (std::size_t j = 0; j < n; ++j)
                fnvMix(digest, pfns[j]);
        }
        if (t)
            t->close(round_span);

        // Conservation: shallow every round, the O(pool) deep frame
        // scan once; neither is timed.
        if (const auto v = checkShardConservation(vm, log.rounds() == 0))
            result.check(false, "tenants: conservation violated: " + *v);
        const std::vector<std::uint64_t> round_out =
            finalOutputs(digest, vm);
        if (outputs.empty())
            outputs = round_out;
        result.check(round_out == outputs,
                     "tenants: round " + std::to_string(log.rounds()) +
                         " differs from round 0");
        steals = vm.counters().steals;
        deferred = vm.counters().deferredBatchOps;
        forwards = vm.forwardEntries();
        imbalance = imbalancePermille(vm);
        resident_frac = 1.0 - static_cast<double>(vm.stats().faults()) /
                                  static_cast<double>(stream.size());
        result.attempted += stream.size();
        const double timed_s = static_cast<double>(timed_ns) * 1e-9;
        log.add(setup_s, timed_s,
                static_cast<double>(stream.size()) / timed_s, traced);
    }
    log.finish(result);
    result.outputs["tenants.digest_and_stats"] = outputs;

    std::printf("tenants_churn: %zu ASIDs on %zu frames across %zu "
                "shards, %zu touches per round, %u rounds\n",
                asids, frames, shards, stream.size(), log.rounds());

    if (tracer) {
        auto &m = result.metrics;
        const std::vector<double> blocks =
            tracer->durationsNs("os.sharded.touchBatch");
        double block_ns = 0.0;
        for (double d : blocks)
            block_ns += d;
        m["os.sharded.touch_ns"] =
            block_ns / (static_cast<double>(stream.size()) *
                        log.tracedRounds());
        m["os.sharded.block_p50_us"] = percentile(blocks, 0.50) * 1e-3;
        m["os.sharded.block_p99_us"] = percentile(blocks, 0.99) * 1e-3;
        m["os.sharded.steals"] = static_cast<double>(steals);
        m["os.sharded.deferred_ops"] = static_cast<double>(deferred);
        m["os.sharded.forward_entries"] = static_cast<double>(forwards);
        m["os.sharded.imbalance_permille"] =
            static_cast<double>(imbalance);
        m["os.sharded.resident_frac"] = resident_frac;
        m["hash.candidates_ns"] = candidateNs(config, stream, *tracer);
    }
    return result;
}

} // namespace perfbench
