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
 * home shard. The one exception is cross-shard sharing: a ToC adopted
 * from another shard's location ID is forwarded there (sticky).
 *
 * Cross-shard sharing (LocationId). shareRange posts one adoption
 * message per mosaic-page chunk to the mailbox of the shard owning
 * the source ToC; mailboxes are drained in shard order, executing
 * the scalar shareRange at the owner, and the destination ToC is
 * forwarded to the owner so both sides of the share resolve there.
 *
 * Determinism contract: the engine is exactly N independent MosaicVms
 * built from shardConfig(), each fed its routed ops in order. So a
 * sharded machine equals N plain MosaicVms, touchBatch equals a scalar
 * touch() loop, and both hold at any MOSAIC_THREADS. With shards=1
 * the engine is a pure delegate: stat-for-stat and
 * placement-for-placement identical to a plain MosaicVm built from
 * the same config.
 */

#ifndef MOSAIC_OS_SHARDED_VM_HH_
#define MOSAIC_OS_SHARDED_VM_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/shard_view.hh"
#include "os/mosaic_vm.hh"
#include "os/virtual_memory.hh"
#include "util/flat_map.hh"

namespace mosaic
{

/** Configuration of a ShardedMosaicVm. */
struct ShardedVmConfig
{
    /** The whole machine's config; geometry covers the full pool
     *  (all shards together). With shards == 1 this is byte-for-byte
     *  the config of the single delegate MosaicVm. */
    MosaicVmConfig base;

    /** Number of shards; the pool must split evenly into valid
     *  per-shard geometries. */
    std::size_t shards = 1;
};

/** Cross-shard protocol counters (telemetry and tests). */
struct ShardCounters
{
    /** Always 0: shards never steal frames from each other. Kept,
     *  with deferredBatchOps, because perfbench/tenants_churn.cc
     *  reads and digests both; they go with that benchmark's next
     *  revision. */
    std::uint64_t steals = 0;

    /** Adoption messages posted to shard mailboxes. */
    std::uint64_t msgsPosted = 0;

    /** Adoption messages executed at their owner shard. */
    std::uint64_t msgsDrained = 0;

    /** Adoptions that forwarded a destination ToC off its home. */
    std::uint64_t crossShardAdoptions = 0;

    /** Always 0: touchBatch defers nothing (see steals). */
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
     * shard's pool slice. Shard 0 keeps the base seed verbatim (the
     * shards=1 identity), later shards get an independent mixed
     * stream. Exposed so differential mirrors build bit-identical
     * shard VMs.
     */
    static MosaicVmConfig shardConfig(const ShardedVmConfig &config,
                                      std::size_t shard);

    Pfn touch(Asid asid, Vpn vpn, bool write) override;

    /**
     * Batched touch across shards: the block is partitioned by routed
     * shard, and each shard runs its ops, in block order, through its
     * own MosaicVm::touchBatch on the MOSAIC_THREADS pool. The
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

    /** unmapRange, routed: the range is split into per-shard runs
     *  at ToC granularity (forwarded ToCs run at their owner). */
    void unmapRange(Asid asid, Vpn vpn, std::size_t npages);

    /** shareRange via the adoption-message protocol (class docs). */
    void shareRange(Asid src_asid, Vpn src_vpn, Asid dst_asid,
                    Vpn dst_vpn, std::size_t npages);

    /** Route-aware binding probe: does the shard owning (asid, vpn)'s
     *  ToC hold a location-ID binding for it? */
    bool hasLocationBinding(Asid asid, Vpn vpn) const;

    std::size_t numShards() const { return vms_.size(); }
    const PoolPartition &partition() const { return part_; }
    const ShardCounters &counters() const { return counters_; }

    /** Home shard of an ASID (Lemire multiply-shift). */
    std::size_t
    homeShard(Asid asid) const
    {
        return shardRoute(asid, static_cast<std::uint32_t>(vms_.size()));
    }

    /** Shard holding (asid, vpn): the home shard, unless the page's
     *  ToC was forwarded by a cross-shard adoption. */
    std::size_t routeOf(Asid asid, Vpn vpn) const;

    MosaicVm &shard(std::size_t s) { return *vms_[s]; }
    const MosaicVm &shard(std::size_t s) const { return *vms_[s]; }

    /** Ghost pages summed over shards. */
    std::size_t ghostPages() const;

    /** Location-ID bindings summed over shards. */
    std::size_t locationBindings() const;

    /** ToC entries across all shards' location-ID user lists. */
    std::size_t locationUsers() const;

    /** Live ToC forwarding entries. */
    std::size_t forwardEntries() const { return forward_.size(); }

    /** Visit every forwarding entry as (ToC key, target shard); the
     *  key is (asid << 48) | mvpn. */
    template <typename Fn>
    void
    forEachForward(Fn &&fn) const
    {
        for (const auto &[key, target] : forward_)
            fn(key, target);
    }

  private:
    /** One queued cross-shard adoption (one mosaic-page chunk). */
    struct AdoptMsg
    {
        Asid srcAsid = 0;
        Vpn srcVpn = 0;
        Asid dstAsid = 0;
        Vpn dstVpn = 0;
    };

    static std::uint64_t
    tocKeyOf(Asid asid, Vpn vpn, unsigned log2_arity)
    {
        return (std::uint64_t{asid} << 48) | (vpn >> log2_arity);
    }

    PoolPartition part_;
    std::vector<std::unique_ptr<MosaicVm>> vms_;
    bool locMode_ = false;
    unsigned log2Arity_ = 0;

    /** ToCs ((asid << 48) | mvpn) living away from their ASID's home
     *  shard; only LocationId-mode adoptions create them. */
    FlatMap<std::uint64_t, std::uint32_t> forward_;

    /** Per-shard adoption mailboxes; drained before shareRange
     *  returns, so they are empty between public calls. */
    std::vector<std::vector<AdoptMsg>> mailboxes_;

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
