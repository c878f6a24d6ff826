#include "os/sharded_vm.hh"

#include <algorithm>

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
    // Shard 0 keeps the base seed verbatim so a one-shard engine is
    // byte-identical to the scalar MosaicVm; later shards draw from
    // independent mixed streams.
    if (shard != 0)
        cfg.seed = mix64(config.base.seed ^ (0x5A4DED00ull + shard));
    return cfg;
}

ShardedMosaicVm::ShardedMosaicVm(const ShardedVmConfig &config)
    : part_(PoolPartition::split(config.base.geometry, config.shards)),
      locMode_(config.base.sharing == SharingMode::LocationId),
      log2Arity_(ceilLog2(config.base.arity)),
      mailboxes_(config.shards),
      batches_(config.shards)
{
    vms_.reserve(config.shards);
    for (std::size_t s = 0; s < config.shards; ++s)
        vms_.push_back(std::make_unique<MosaicVm>(shardConfig(config, s)));
}

std::size_t
ShardedMosaicVm::routeOf(Asid asid, Vpn vpn) const
{
    if (locMode_) {
        if (const std::uint32_t *target =
                forward_.find(tocKeyOf(asid, vpn, log2Arity_)))
            return *target;
    }
    return homeShard(asid);
}

Pfn
ShardedMosaicVm::touch(Asid asid, Vpn vpn, bool write)
{
    const std::size_t s = routeOf(asid, vpn);
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
        ShardBatch &b = batches_[routeOf(block[i].asid, block[i].vpn)];
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
        for (std::size_t j = 0; j < b.ops.size(); ++j)
            out[b.idx[j]] = part_.toGlobal(s, b.out[j]);
    });
}

void
ShardedMosaicVm::unmapRange(Asid asid, Vpn vpn, std::size_t npages)
{
    if (vms_.size() == 1) {
        vms_[0]->unmapRange(asid, vpn, npages);
        return;
    }
    if (npages == 0)
        return;

    // Split the range into per-shard runs at ToC granularity, the
    // unit a cross-shard adoption forwards.
    const std::uint64_t arity = std::uint64_t{1} << log2Arity_;
    std::size_t run_start = 0;
    std::size_t run_shard = routeOf(asid, vpn);
    std::size_t i = 0;
    while (i < npages) {
        i = std::min(npages, i + (arity - ((vpn + i) & (arity - 1))));
        if (i >= npages)
            break;
        const std::size_t s = routeOf(asid, vpn + i);
        if (s != run_shard) {
            vms_[run_shard]->unmapRange(asid, vpn + run_start,
                                        i - run_start);
            run_start = i;
            run_shard = s;
        }
    }
    vms_[run_shard]->unmapRange(asid, vpn + run_start, npages - run_start);
}

void
ShardedMosaicVm::shareRange(Asid src_asid, Vpn src_vpn, Asid dst_asid,
                            Vpn dst_vpn, std::size_t npages)
{
    if (vms_.size() == 1) {
        vms_[0]->shareRange(src_asid, src_vpn, dst_asid, dst_vpn,
                            npages);
        return;
    }
    ensure(locMode_, "sharded_vm: sharing requires LocationId mode");
    const std::uint64_t arity = std::uint64_t{1} << log2Arity_;
    ensure((src_vpn & (arity - 1)) == 0 && (dst_vpn & (arity - 1)) == 0,
           "sharded_vm: share range must be mosaic-aligned");
    ensure(npages % arity == 0,
           "sharded_vm: share range must cover whole mosaic pages");

    // Post one adoption message per chunk to the shard owning the
    // source ToC, and point the destination ToC at that owner so both
    // sides of the share resolve to the same shard from now on.
    for (std::size_t i = 0; i < npages; i += arity) {
        const std::size_t owner = routeOf(src_asid, src_vpn + i);
        ensure(!hasLocationBinding(dst_asid, dst_vpn + i),
               "sharded_vm: destination ToC already bound");
        mailboxes_[owner].push_back(
            AdoptMsg{src_asid, src_vpn + i, dst_asid, dst_vpn + i});
        ++counters_.msgsPosted;
        const std::uint64_t dkey =
            tocKeyOf(dst_asid, dst_vpn + i, log2Arity_);
        if (owner != homeShard(dst_asid)) {
            forward_[dkey] = static_cast<std::uint32_t>(owner);
            ++counters_.crossShardAdoptions;
        } else {
            // A stale sticky entry (from a share whose binding later
            // died) must not outlive the re-home.
            forward_.erase(dkey);
        }
    }

    // Drain in shard order. Messages within one mailbox stay in
    // posting order, so same-shard chunks execute in the same
    // relative order as the scalar loop.
    for (std::size_t s = 0; s < vms_.size(); ++s) {
        for (const AdoptMsg &m : mailboxes_[s]) {
            vms_[s]->shareRange(m.srcAsid, m.srcVpn, m.dstAsid,
                                m.dstVpn,
                                static_cast<std::size_t>(arity));
            ++counters_.msgsDrained;
        }
        mailboxes_[s].clear();
    }
}

bool
ShardedMosaicVm::hasLocationBinding(Asid asid, Vpn vpn) const
{
    if (!locMode_)
        return false;
    return vms_[routeOf(asid, vpn)]->hasLocationBinding(asid, vpn);
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

std::size_t
ShardedMosaicVm::locationBindings() const
{
    std::size_t n = 0;
    for (const auto &vm : vms_)
        n += vm->locationBindings();
    return n;
}

std::size_t
ShardedMosaicVm::locationUsers() const
{
    std::size_t n = 0;
    for (const auto &vm : vms_)
        n += vm->locationUsers();
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
        agg.recoveredConflicts += s.recoveredConflicts;
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
