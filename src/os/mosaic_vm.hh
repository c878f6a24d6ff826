/**
 * @file
 * The mosaic virtual-memory subsystem: iceberg page allocation
 * (paper §2.3) plus Horizon LRU eviction with ghost pages (§2.4).
 *
 * Also implements the location-ID sharing extension sketched in
 * §2.5: in SharingMode::LocationId the placement hash input is a
 * per-ToC random identifier instead of (ASID, VPN), so the same ToC
 * — and therefore the same physical frames — can back mappings in
 * several address spaces.
 */

#ifndef MOSAIC_OS_MOSAIC_VM_HH_
#define MOSAIC_OS_MOSAIC_VM_HH_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/frame_table.hh"
#include "mem/mosaic_allocator.hh"
#include "os/ghost_tracker.hh"
#include "os/swap_device.hh"
#include "os/virtual_memory.hh"
#include "pt/mosaic_page_table.hh"
#include "util/flat_map.hh"
#include "util/random.hh"

namespace mosaic
{

/** How placement-hash inputs are derived (paper §2.2 vs §2.5). */
enum class SharingMode
{
    /** Hash (ASID, VPN): the paper's default; no page sharing. */
    PageIdHash,

    /** Hash (location ID, sub-page index): enables shared ToCs. */
    LocationId,
};

/**
 * Eviction policy (for the ablation study; the paper's design is
 * HorizonLru, §2.4).
 */
enum class EvictionPolicy
{
    /** Ghost pages below a rising horizon; the paper's algorithm. */
    HorizonLru,

    /** Naive: on a conflict, evict the LRU candidate. No ghosts.
     *  Lacks Horizon LRU's global-LRU equivalence. */
    LocalLru,

    /** Prior work (Bender et al. SPAA '21): run replacement as if
     *  memory were (1 - delta)p so conflicts "never" happen; evicts
     *  the global LRU page at the capacity cap, wasting delta*p
     *  frames. */
    ShrunkenCache,
};

/** Configuration of a MosaicVm instance. */
struct MosaicVmConfig
{
    MemoryGeometry geometry{};
    unsigned arity = 4;
    SharingMode sharing = SharingMode::PageIdHash;
    EvictionPolicy policy = EvictionPolicy::HorizonLru;

    /** Reserved fraction for ShrunkenCache (its delta). */
    double shrinkDelta = 0.02;

    /** Seed for location-ID generation. */
    std::uint64_t seed = 12345;

    /** Optional fault-injection state (DESIGN.md §11); must outlive
     *  the VM. Consulted at the "vm.place" site and attached to the
     *  swap device for "swap.read"/"swap.write"/"swap.latency". */
    fault::FaultInjector *faults = nullptr;
};

/** Mosaic paging: iceberg allocation + Horizon LRU. */
class MosaicVm final : public VirtualMemory
{
  public:
    explicit MosaicVm(const MosaicVmConfig &config);

    Pfn touch(Asid asid, Vpn vpn, bool write) override;

    /**
     * Batched touch (ROADMAP item 2): a walk-first pipeline. A fixed
     * lookahead ahead of the apply point it prefetches each op's
     * page-table leaf, walks the op, and for a resident page decodes
     * the one bucket its CPFN names (MosaicMapper::pfnOf) and
     * prefetches that frame's record. Touches are
     * then applied in the caller's order, so results, stats and
     * placements are bit-identical to a scalar touch() loop; faults
     * take the scalar fault path. A fault may evict a walked page, so
     * a walk is applied only if its frame still holds that page;
     * otherwise the op runs the scalar touch(). LocationId sharing
     * derives hash inputs statefully (binding creation draws the
     * RNG), so that mode — and trivial blocks — run the scalar loop
     * directly.
     */
    void touchBatch(std::span<const PageTouch> block, Pfn *out) override;

    std::size_t numFrames() const override;
    std::size_t residentPages() const override;
    const VmStats &stats() const override { return stats_; }
    std::string name() const override { return "mosaic"; }

    /** The page table of an address space (created on demand). */
    MosaicPageTable &
    pageTable(Asid asid)
    {
        if (lastTable_ && lastAsid_ == asid)
            return *lastTable_;
        return lookupTable(asid);
    }

    /** Frame-level metadata (for inspection and tests). */
    const FrameTable &frameTable() const { return frames_; }

    /** The placement machinery (for inspection and tests). */
    const MosaicAllocator &allocator() const { return allocator_; }

    /** Current Horizon LRU horizon timestamp. */
    Tick horizon() const { return horizon_; }

    /** Current logical time. */
    Tick now() const { return clock_; }

    /** True when the frame's page is a ghost (resident but logically
     *  evicted: last accessed before the horizon). */
    bool isGhostFrame(Pfn pfn) const;

    /** Resident pages that are ghosts. O(1): the count is maintained
     *  incrementally as the horizon moves and frames churn. */
    std::size_t ghostPages() const { return ghosts_.ghostCount(); }

    /** The incrementally kept ghost set, PFN-indexed: bit set iff
     *  isGhostFrame() (for inspection and tests). */
    const BitVec &ghostBits() const { return ghosts_.bits(); }

    /** Swap-device counters (for telemetry and tests). */
    const SwapDevice &swapDevice() const { return swap_; }

    /** Live ToC -> location-ID bindings (LocationId mode; tests). */
    std::size_t locationBindings() const { return locationIds_.size(); }

    /** Total ToC entries across all location-ID user lists (tests).
     *  Equals locationBindings() when no ToCs are shared. */
    std::size_t
    locationUsers() const
    {
        std::size_t n = 0;
        for (const auto &[id, users] : locUsers_)
            n += users.size();
        return n;
    }

    /**
     * Release a range of pages (munmap): resident frames are freed
     * without writeback, swap copies are dropped, and the range can
     * be faulted in fresh afterwards.
     */
    void unmapRange(Asid asid, Vpn vpn, std::size_t npages);

    /**
     * Share the mosaic pages covering @p npages base pages starting
     * at (src_asid, src_vpn) into (dst_asid, dst_vpn). Requires
     * SharingMode::LocationId; both VPNs must be mosaic-aligned and
     * npages a multiple of the arity. After sharing, touches through
     * either mapping resolve to the same physical frames.
     */
    void shareRange(Asid src_asid, Vpn src_vpn, Asid dst_asid,
                    Vpn dst_vpn, std::size_t npages);

  private:
    struct TocKey
    {
        Asid asid = 0;
        Mvpn mvpn = 0;
        bool operator<(const TocKey &o) const
        {
            return asid != o.asid ? asid < o.asid : mvpn < o.mvpn;
        }
        bool operator==(const TocKey &o) const
        {
            return asid == o.asid && mvpn == o.mvpn;
        }
    };

    struct TocKeyHash
    {
        std::uint64_t operator()(const TocKey &k) const
        {
            // MVPNs are at most vpnBits - log2(arity) < 48 bits, so
            // the ASID occupies disjoint bits before mixing.
            return FlatHash<std::uint64_t>{}(
                (std::uint64_t(k.asid) << 48) ^ k.mvpn);
        }
    };

    /** pageTable() past its memo: find or create, then remember. */
    MosaicPageTable &lookupTable(Asid asid);

    /**
     * A touch of a page resident in @p pfn at the current clock:
     * ghost rescue, frame timestamp, and the recency-log append.
     * Changes no mapping.
     */
    Pfn touchResident(Pfn pfn, bool write);

    /**
     * A touch of a page the walk found absent, at the current clock:
     * adopt a sharer's frame (LocationId mode) or place the page,
     * evicting as needed. Always changes a page->frame mapping.
     */
    Pfn touchAbsent(Asid asid, Vpn vpn, bool write,
                    std::uint64_t hash_input);

    /** Placement-hash input for one base page. */
    std::uint64_t hashInputFor(Asid asid, Vpn vpn);

    /** Like hashInputFor, but never creates a location-ID binding:
     *  nullopt when the ToC has no binding (LocationId mode only —
     *  such a ToC was never touched, so nothing can reference it). */
    std::optional<std::uint64_t> hashInputIfBound(Asid asid, Vpn vpn);

    /** Drop the ToC's location-ID binding when no sub-page of it is
     *  resident or swapped out; no-op while any is still live. */
    void releaseBindingIfDead(const TocKey &key);

    /** Ghost/live bookkeeping for a frame about to be unmapped. */
    void noteFrameFreed(Pfn pfn);

    /** Move frames that fell below the horizon into the ghost
     *  count. Amortized O(1) per touch. */
    void reapGhosts();

    /** Location ID of the ToC containing (asid, vpn), creating one
     *  if needed (LocationId mode only). */
    std::uint64_t locationIdFor(Asid asid, Vpn vpn);

    /** Evict the page in @p pfn: write to swap if needed, clear all
     *  page-table mappings of it, free the frame. */
    void evictFrame(Pfn pfn);

    /** Visit every (asid, vpn) mapping currently resolving to the
     *  frame (owner first, then sharers) without allocating — this
     *  runs on every eviction. @p fn must not mutate sharers_. */
    template <typename Fn>
    void
    forEachMapping(Pfn pfn, Fn &&fn) const
    {
        const Frame &f = frames_.frame(pfn);
        const std::pair<Asid, Vpn> owner{f.owner.asid, f.owner.vpn};
        fn(owner.first, owner.second);
        if (const auto *shared = sharers_.find(pfn)) {
            for (const auto &mapping : *shared) {
                if (mapping != owner)
                    fn(mapping.first, mapping.second);
            }
        }
    }

    MosaicVmConfig config_;
    MosaicAllocator allocator_;
    FrameTable frames_;
    SwapDevice swap_;
    VmStats stats_;
    Tick clock_ = 0;
    Tick horizon_ = 0;
    Rng rng_;

    /** ShrunkenCache: live-page cap ((1 - delta)p; numFrames
     *  otherwise). */
    std::size_t liveCap_;

    /** Recency-log / ghost-count / ghost-bitmap bookkeeping for this
     *  VM's horizon clock (shared with the sharded engine's shards,
     *  DESIGN.md §17). ShrunkenCache's global LRU is its log. */
    GhostTracker ghosts_;

    FlatMap<Asid, std::unique_ptr<MosaicPageTable>> tables_;

    /** Memo of the last pageTable() lookup; tables are never freed. */
    Asid lastAsid_ = 0;
    MosaicPageTable *lastTable_ = nullptr;

    /** Frame of the last touch: a repeat touch that finds its page
     *  still owning it skips the walk (DESIGN.md §12.1). */
    Pfn lastPfn_ = invalidPfn;

    /** LocationId mode: ToC -> location ID. */
    FlatMap<TocKey, std::uint64_t, TocKeyHash> locationIds_;

    /** LocationId mode: location ID -> ToCs bound to it. */
    FlatMap<std::uint64_t, std::vector<TocKey>> locUsers_;

    /** True once utilization first reached the steady-state band. */
    bool samplingSteadyState_ = false;

    /** LocationId mode: frame -> sharing mappings beyond the owner.
     *  Only frames referenced by shared ToCs appear here. */
    FlatMap<Pfn, std::vector<std::pair<Asid, Vpn>>> sharers_;
};

} // namespace mosaic

#endif // MOSAIC_OS_MOSAIC_VM_HH_
