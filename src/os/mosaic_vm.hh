/**
 * @file
 * The mosaic virtual-memory subsystem: iceberg page allocation
 * (paper §2.3) plus Horizon LRU eviction with ghost pages (§2.4).
 *
 * A page's placement hash input is its packed (ASID, VPN) (§2.2), so
 * every frame holds exactly one mapping: its owner's. The §2.5
 * location-ID sharing sketch is not implemented (DESIGN.md §5).
 */

#ifndef MOSAIC_OS_MOSAIC_VM_HH_
#define MOSAIC_OS_MOSAIC_VM_HH_

#include <memory>
#include <string>

#include "mem/frame_table.hh"
#include "mem/mosaic_allocator.hh"
#include "os/ghost_tracker.hh"
#include "os/swap_device.hh"
#include "os/virtual_memory.hh"
#include "pt/mosaic_page_table.hh"
#include "util/flat_map.hh"

namespace mosaic
{

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
    EvictionPolicy policy = EvictionPolicy::HorizonLru;

    /** Reserved fraction for ShrunkenCache (its delta). */
    double shrinkDelta = 0.02;

    /** Read by nothing: it seeded the deleted location-ID generator.
     *  Kept only because perfbench/table4_swap.cc and
     *  perfbench/tenants_churn.cc assign it; it goes with that
     *  benchmark's next revision (ROADMAP item 6(c)). */
    std::uint64_t seed = 12345;
};

/** Mosaic paging: iceberg allocation + Horizon LRU. */
class MosaicVm final : public VirtualMemory
{
  public:
    explicit MosaicVm(const MosaicVmConfig &config);

    Pfn touch(Asid asid, Vpn vpn, bool write) override;

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

    /**
     * Release a range of pages (munmap): resident frames are freed
     * without writeback, swap copies are dropped, and the range can
     * be faulted in fresh afterwards.
     */
    void unmapRange(Asid asid, Vpn vpn, std::size_t npages);

  private:
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
     * place the page, evicting as needed. Always changes a
     * page->frame mapping.
     */
    Pfn touchAbsent(Asid asid, Vpn vpn, bool write,
                    std::uint64_t hash_input);

    /** Ghost/live bookkeeping for a frame about to be unmapped. */
    void noteFrameFreed(Pfn pfn);

    /** Move frames that fell below the horizon into the ghost
     *  count. Amortized O(1) per touch. */
    void reapGhosts();

    /** Evict the page in @p pfn: write to swap if needed, clear its
     *  owner's mapping, free the frame. */
    void evictFrame(Pfn pfn);

    MosaicVmConfig config_;
    MosaicAllocator allocator_;
    FrameTable frames_;
    SwapDevice swap_;
    VmStats stats_;
    Tick clock_ = 0;
    Tick horizon_ = 0;

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

    /** True once utilization first reached the steady-state band. */
    bool samplingSteadyState_ = false;
};

} // namespace mosaic

#endif // MOSAIC_OS_MOSAIC_VM_HH_
