/**
 * @file
 * The interface shared by the mosaic and baseline virtual-memory
 * models: demand paging driven by page touches.
 */

#ifndef MOSAIC_OS_VIRTUAL_MEMORY_HH_
#define MOSAIC_OS_VIRTUAL_MEMORY_HH_

#include <cstddef>
#include <span>
#include <string>

#include "os/vm_stats.hh"
#include "util/types.hh"

namespace mosaic
{

/** One page access of a batched touch block. */
struct PageTouch
{
    Asid asid = 0;
    Vpn vpn = 0;
    bool write = false;
};

/**
 * A demand-paged virtual-memory subsystem over a fixed number of
 * physical frames. Callers drive it with page touches; the model
 * performs allocation, eviction, and swap accounting.
 */
class VirtualMemory
{
  public:
    virtual ~VirtualMemory() = default;

    /**
     * Access one virtual page, faulting it in if necessary.
     * @return the PFN now backing the page.
     */
    virtual Pfn touch(Asid asid, Vpn vpn, bool write) = 0;

    /**
     * Access a block of pages. out[i] receives the PFN of block[i].
     * The contract is exact equivalence: every stat, placement, and
     * returned PFN must match a scalar touch() loop over the block
     * in order. The default *is* that loop; ShardedMosaicVm
     * overrides it to run its shards in parallel.
     */
    virtual void
    touchBatch(std::span<const PageTouch> block, Pfn *out)
    {
        for (std::size_t i = 0; i < block.size(); ++i)
            out[i] = touch(block[i].asid, block[i].vpn, block[i].write);
    }

    /** Physical frames managed by this instance. */
    virtual std::size_t numFrames() const = 0;

    /** Frames currently backing pages. */
    virtual std::size_t residentPages() const = 0;

    virtual const VmStats &stats() const = 0;

    virtual std::string name() const = 0;
};

} // namespace mosaic

#endif // MOSAIC_OS_VIRTUAL_MEMORY_HH_
