/**
 * @file
 * The baseline virtual-memory model: a conventional fully-associative
 * allocator with a free-memory watermark and batched global-LRU
 * reclaim, approximating default Linux behaviour for anonymous pages.
 *
 * Matching the paper's observation (§4.2), the watermark defaults to
 * 0.8 % of memory, so swapping begins at ~99.2 % utilization.
 */

#ifndef MOSAIC_OS_LINUX_VM_HH_
#define MOSAIC_OS_LINUX_VM_HH_

#include <memory>
#include <string>

#include "mem/frame_table.hh"
#include "mem/freelist_allocator.hh"
#include "os/recency_log.hh"
#include "os/swap_device.hh"
#include "os/virtual_memory.hh"
#include "pt/vanilla_page_table.hh"
#include "util/flat_map.hh"

namespace mosaic
{

/** Configuration of the baseline VM. */
struct LinuxVmConfig
{
    /** Physical frames managed. */
    std::size_t numFrames = 64 * 1024;

    /** Free-frame reserve as a fraction of memory (zone watermark). */
    double watermarkFraction = 0.008;

    /** Pages reclaimed per kswapd-style batch (SWAP_CLUSTER_MAX). */
    unsigned reclaimBatch = 32;
};

/** Fully-associative demand paging with global LRU reclaim. */
class LinuxVm final : public VirtualMemory
{
  public:
    explicit LinuxVm(const LinuxVmConfig &config);

    Pfn touch(Asid asid, Vpn vpn, bool write) override;
    std::size_t numFrames() const override { return frames_.numFrames(); }
    std::size_t residentPages() const override
    {
        return frames_.usedFrames();
    }
    const VmStats &stats() const override { return stats_; }
    std::string name() const override { return "linux"; }

    /** The page table of an address space (created on demand). */
    VanillaPageTable &
    pageTable(Asid asid)
    {
        if (lastTable_ && lastAsid_ == asid)
            return *lastTable_;
        return lookupTable(asid);
    }

    /**
     * Release a range of pages (munmap): resident frames return to
     * the free list without writeback; swap copies are dropped.
     */
    void unmapRange(Asid asid, Vpn vpn, std::size_t npages);

    const FrameTable &frameTable() const { return frames_; }

    /** Swap-device counters (for telemetry, tests, and oracles). */
    const SwapDevice &swapDevice() const { return swap_; }

    /** Free frames kept in reserve before reclaim starts. */
    std::size_t reserveFrames() const { return reserve_; }

  private:
    /** pageTable() past its memo: find or create, then remember. */
    VanillaPageTable &lookupTable(Asid asid);

    void reclaim();

    /** A touch of a page the walk found absent: reclaim if at the
     *  watermark, then map it into a free frame. */
    Pfn fault(VanillaPageTable &pt, Asid asid, Vpn vpn, bool write);

    LinuxVmConfig config_;
    FreeListAllocator free_;
    FrameTable frames_;
    /** Global LRU order of the used frames (a recency log). */
    RecencyLog lru_;
    SwapDevice swap_;
    VmStats stats_;
    Tick clock_ = 0;
    std::size_t reserve_;

    FlatMap<Asid, std::unique_ptr<VanillaPageTable>> tables_;

    /** Memo of the last pageTable() lookup; tables are never freed. */
    Asid lastAsid_ = 0;
    VanillaPageTable *lastTable_ = nullptr;

    /** Frame of the last touch: a repeat touch that finds its page
     *  still there skips the walk (DESIGN.md §12.1). */
    Pfn lastPfn_ = invalidPfn;
};

} // namespace mosaic

#endif // MOSAIC_OS_LINUX_VM_HH_
