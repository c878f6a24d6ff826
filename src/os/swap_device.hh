/**
 * @file
 * A model of the swap device (the paper's experiments use a 4 GiB
 * ramdisk). Tracks which pages have a swap copy and counts I/Os.
 *
 * Pages are identified by an opaque 64-bit key, the VM's packed
 * page ID.
 *
 * Swap copies persist after swap-in (a swap cache), so evicting a
 * page that has not been dirtied since its last swap-in costs no
 * write I/O — matching Linux behaviour and applied identically to
 * both the mosaic and baseline VMs.
 *
 * The device has no failure modes: Tables 3/4 read only its I/O
 * counts, and the paper's device is a ramdisk. A read of a page with
 * no swap copy is never performed: it is counted as spuriousReads
 * (and panics in debug builds, since the VMs always check contains()
 * first).
 */

#ifndef MOSAIC_OS_SWAP_DEVICE_HH_
#define MOSAIC_OS_SWAP_DEVICE_HH_

#include <cstdint>
#include <unordered_set>

#include "util/log.hh"

namespace mosaic
{

/** Swap-slot bookkeeping and I/O counting. */
class SwapDevice
{
  public:
    /** True when the page has an up-to-date copy on the device. */
    bool
    contains(std::uint64_t key) const
    {
        return slots_.contains(key);
    }

    /** Write a page out (one write I/O). */
    void
    writeOut(std::uint64_t key)
    {
        slots_.insert(key);
        ++writes_;
    }

    /** Read a page back in (one read I/O). The copy stays valid.
     *  Reading a page with no swap copy performs no I/O: it is a
     *  caller bug, counted as a spurious read (debug builds panic). */
    void
    readIn(std::uint64_t key)
    {
        if (!slots_.contains(key)) {
            ++spuriousReads_;
#ifndef NDEBUG
            panic("swap: readIn of a page with no swap copy");
#endif
            return;
        }
        ++reads_;
    }

    /** Drop a page's swap copy (it was overwritten in memory). */
    void
    invalidate(std::uint64_t key)
    {
        slots_.erase(key);
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t totalIo() const { return reads_ + writes_; }

    /** Reads requested for pages with no swap copy (caller bugs). */
    std::uint64_t spuriousReads() const { return spuriousReads_; }

    /** Pages currently holding swap copies. */
    std::size_t pagesStored() const { return slots_.size(); }

    /**
     * Visit every counter as (name, value) pairs for telemetry.
     * spuriousReads is visited only when nonzero, so a correct run's
     * telemetry carries only the four I/O counters.
     */
    template <typename Fn>
    void
    forEachMetric(Fn &&fn) const
    {
        fn("reads", reads_);
        fn("writes", writes_);
        fn("totalIo", totalIo());
        fn("pagesStored", static_cast<std::uint64_t>(pagesStored()));
        if (spuriousReads_ > 0)
            fn("spuriousReads", spuriousReads_);
    }

  private:
    // Deliberately not a FlatSet: swap keys are touched in VPN order
    // by sweep-style workloads, and the node-based set's insertion-
    // order allocation gives those sweeps near-linear memory access,
    // which beats an open-addressed probe whose strong hash scatters
    // every lookup (measured ~2x on the eviction micros).
    std::unordered_set<std::uint64_t> slots_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t spuriousReads_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_OS_SWAP_DEVICE_HH_
