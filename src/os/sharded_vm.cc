#include "os/sharded_vm.hh"

#include "util/thread_pool.hh"

namespace mosaic
{

MosaicVmConfig
ShardedMosaicVm::shardConfig(const ShardedVmConfig &config,
                             std::size_t shard)
{
    const PoolPartition part =
        PoolPartition::split(config.base.geometry, config.shards);
    MosaicVmConfig cfg = config.base;
    cfg.geometry = part.shardGeometry(config.base.geometry, shard);
    return cfg;
}

ShardedMosaicVm::ShardedMosaicVm(const ShardedVmConfig &config)
    : part_(PoolPartition::split(config.base.geometry, config.shards)),
      batches_(config.shards)
{
    vms_.reserve(config.shards);
    for (std::size_t s = 0; s < config.shards; ++s)
        vms_.push_back(std::make_unique<MosaicVm>(shardConfig(config, s)));
}

Pfn
ShardedMosaicVm::touch(Asid asid, Vpn vpn, bool write)
{
    const std::size_t s = homeShard(asid);
    return part_.toGlobal(s, vms_[s]->touch(asid, vpn, write));
}

void
ShardedMosaicVm::touchBatch(std::span<const PageTouch> block, Pfn *out)
{
    if (vms_.size() == 1) {
        // Pure delegation: the one-shard engine inherits the PR 6
        // batched pipeline and its exact scalar equivalence.
        vms_[0]->touchBatch(block, out);
        return;
    }

    for (ShardBatch &b : batches_) {
        b.ops.clear();
        b.idx.clear();
    }
    for (std::size_t i = 0; i < block.size(); ++i) {
        ShardBatch &b = batches_[homeShard(block[i].asid)];
        b.ops.push_back(block[i]);
        b.idx.push_back(static_cast<std::uint32_t>(i));
    }

    // Each shard runs its ops in block order and touches only its own
    // state, so the result is independent of how parallelFor
    // schedules the shards across workers.
    parallelFor(vms_.size(), [&](std::size_t s) {
        ShardBatch &b = batches_[s];
        b.out.resize(b.ops.size());
        vms_[s]->touchBatch(b.ops, b.out.data());
    });

    // Gather on the calling thread after the join: scattered from the
    // workers, the 8-byte result stores of different shards would
    // interleave within the same cache lines of `out`.
    for (std::size_t s = 0; s < vms_.size(); ++s) {
        const ShardBatch &b = batches_[s];
        for (std::size_t j = 0; j < b.ops.size(); ++j)
            out[b.idx[j]] = part_.toGlobal(s, b.out[j]);
    }
}

void
ShardedMosaicVm::unmapRange(Asid asid, Vpn vpn, std::size_t npages)
{
    vms_[homeShard(asid)]->unmapRange(asid, vpn, npages);
}

std::size_t
ShardedMosaicVm::numFrames() const
{
    return part_.numShards * part_.framesPerShard;
}

std::size_t
ShardedMosaicVm::residentPages() const
{
    std::size_t n = 0;
    for (const auto &vm : vms_)
        n += vm->residentPages();
    return n;
}

std::size_t
ShardedMosaicVm::ghostPages() const
{
    std::size_t n = 0;
    for (const auto &vm : vms_)
        n += vm->ghostPages();
    return n;
}

const VmStats &
ShardedMosaicVm::stats() const
{
    VmStats agg;
    const auto min_gauge = [](double *into, double value) {
        if (value >= 0 && (*into < 0 || value < *into))
            *into = value;
    };
    for (const auto &vm : vms_) {
        const VmStats &s = vm->stats();
        agg.minorFaults += s.minorFaults;
        agg.majorFaults += s.majorFaults;
        agg.swapIns += s.swapIns;
        agg.swapOuts += s.swapOuts;
        agg.conflicts += s.conflicts;
        agg.ghostEvictions += s.ghostEvictions;
        agg.ghostRescues += s.ghostRescues;
        min_gauge(&agg.firstConflictUtilization,
                  s.firstConflictUtilization);
        min_gauge(&agg.firstSwapOutUtilization,
                  s.firstSwapOutUtilization);
        agg.steadyUtilization.merge(s.steadyUtilization);
    }
    aggStats_ = agg;
    return aggStats_;
}

} // namespace mosaic
