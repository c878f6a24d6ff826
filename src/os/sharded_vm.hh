/**
 * @file
 * The sharded multi-tenant VM engine (DESIGN.md §17): one simulated
 * machine whose iceberg frame pool and Horizon LRU are partitioned
 * into N independent shards, each a full MosaicVm over a
 * bucket-aligned slice of the global pool with its own free bitmap,
 * horizon clock, and ghost list.
 *
 * Routing. ASIDs are hash-routed to a home shard with a Lemire
 * multiply-shift (shardRoute), and every page of an ASID lives in its
 * home shard.
 *
 * Determinism contract: the engine is exactly N independent MosaicVms
 * built from shardConfig(), each fed its ASIDs' ops in order. So a
 * sharded machine equals N plain MosaicVms, touchBatch equals a scalar
 * touch() loop, and both hold at any MOSAIC_THREADS. With shards=1
 * the engine is stat-for-stat and placement-for-placement identical
 * to a plain MosaicVm built from the same config.
 */

#ifndef MOSAIC_OS_SHARDED_VM_HH_
#define MOSAIC_OS_SHARDED_VM_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/shard_view.hh"
#include "os/mosaic_vm.hh"
#include "os/virtual_memory.hh"

namespace mosaic
{

/** Configuration of a ShardedMosaicVm. */
struct ShardedVmConfig
{
    /** The whole machine's config; geometry covers the full pool
     *  (all shards together). With shards == 1 this is byte-for-byte
     *  the config of its single shard. */
    MosaicVmConfig base;

    /** Number of shards; the pool must split evenly into valid
     *  per-shard geometries. */
    std::size_t shards = 1;
};

/** Per-machine counters. Both are always 0: shards never steal
 *  frames from each other and touchBatch defers nothing. They are
 *  kept because perfbench/tenants_churn.cc reads and digests them;
 *  they go with that benchmark's next revision. */
struct ShardCounters
{
    std::uint64_t steals = 0;
    std::uint64_t deferredBatchOps = 0;
};

/**
 * N MosaicVm shards presented as one machine-wide VirtualMemory.
 * Returned PFNs are global: shard * framesPerShard + local.
 */
class ShardedMosaicVm : public VirtualMemory
{
  public:
    explicit ShardedMosaicVm(const ShardedVmConfig &config);

    /**
     * The config shard @p shard runs with: the base config over the
     * shard's pool slice. Exposed so differential mirrors build
     * bit-identical shard VMs.
     */
    static MosaicVmConfig shardConfig(const ShardedVmConfig &config,
                                      std::size_t shard);

    Pfn touch(Asid asid, Vpn vpn, bool write) override;

    /**
     * Batched touch across shards: the block is partitioned by home
     * shard, and each shard runs its ops, in block order, through its
     * own MosaicVm::touch() on the MOSAIC_THREADS pool. The
     * calling thread gathers the shards' results into @p out after
     * the join. Shards share no state, so results are bit-identical
     * to a scalar touch() loop for any thread count.
     */
    void touchBatch(std::span<const PageTouch> block, Pfn *out) override;

    std::size_t numFrames() const override;
    std::size_t residentPages() const override;

    /** Machine-wide stats: counters summed over shards, the first-*
     *  utilization gauges the minimum over shards that recorded one,
     *  steady-state utilization merged (verbatim with one shard). */
    const VmStats &stats() const override;

    std::string name() const override { return "sharded-mosaic"; }

    /** unmapRange at the ASID's home shard. */
    void unmapRange(Asid asid, Vpn vpn, std::size_t npages);

    std::size_t numShards() const { return vms_.size(); }
    const PoolPartition &partition() const { return part_; }
    const ShardCounters &counters() const { return counters_; }

    /** Home shard of an ASID (Lemire multiply-shift). */
    std::size_t
    homeShard(Asid asid) const
    {
        return shardRoute(asid, static_cast<std::uint32_t>(vms_.size()));
    }

    MosaicVm &shard(std::size_t s) { return *vms_[s]; }
    const MosaicVm &shard(std::size_t s) const { return *vms_[s]; }

    /** Ghost pages summed over shards. */
    std::size_t ghostPages() const;

    /** Always 0: no page lives away from its home shard. Kept
     *  because perfbench/tenants_churn.cc reads and digests it; it
     *  goes with that benchmark's next revision. */
    std::size_t forwardEntries() const { return 0; }

  private:
    PoolPartition part_;
    std::vector<std::unique_ptr<MosaicVm>> vms_;
    ShardCounters counters_;

    /** Aggregate rebuilt on demand by stats(). */
    mutable VmStats aggStats_;

    /** One shard's slice of a touchBatch block: the ops, their block
     *  indices, and the shard-local PFNs. Kept across calls so
     *  steady-state batches allocate nothing. */
    struct ShardBatch
    {
        std::vector<PageTouch> ops;
        std::vector<std::uint32_t> idx;
        std::vector<Pfn> out;
    };
    std::vector<ShardBatch> batches_;
};

} // namespace mosaic

#endif // MOSAIC_OS_SHARDED_VM_HH_
