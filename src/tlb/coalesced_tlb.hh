/**
 * @file
 * A CoLT-style coalesced TLB (Pham et al., MICRO '12; paper §5.2):
 * one entry covers up to `coalesceFactor` virtually contiguous pages
 * *when their frames happen to be physically contiguous too*. This
 * is the contiguity-dependent alternative Mosaic is positioned
 * against: its reach shrinks exactly as physical memory fragments.
 */

#ifndef MOSAIC_TLB_COALESCED_TLB_HH_
#define MOSAIC_TLB_COALESCED_TLB_HH_

#include <functional>
#include <optional>

#include "tlb/set_assoc.hh"
#include "tlb/tlb_stats.hh"
#include "util/types.hh"

namespace mosaic
{

/** Set-associative TLB with CoLT-style entry coalescing. */
class CoalescedTlb
{
  public:
    /** Pages per coalescing group (CoLT-8). */
    static constexpr unsigned coalesceFactor = 8;

    explicit CoalescedTlb(const TlbGeometry &geometry);

    /** Translate; nullopt on miss. */
    std::optional<Pfn> lookup(Asid asid, Vpn vpn);

    /**
     * Install a translation after a walk. The walker probes the
     * other PTEs of the aligned group through @p pfn_of (returning
     * nullopt for unmapped neighbours) and coalesces every neighbour
     * whose frame sits at the matching offset from vpn's frame.
     */
    void fill(Asid asid, Vpn vpn, Pfn pfn,
              const std::function<std::optional<Pfn>(Vpn)> &pfn_of);

    /** Drop the coverage of one page (and only that page). */
    void invalidate(Asid asid, Vpn vpn);

    /** Drop all entries of an address space. */
    void flushAsid(Asid asid);

    /** The PFN lookup(asid, vpn) would return right now; no stats,
     *  no recency. */
    std::optional<Pfn> contains(Asid asid, Vpn vpn) const;

    /** 4 KiB pages translatable without a walk (mask popcount per
     *  coalesced entry, 1 per per-page entry). */
    std::uint64_t reachPages() const;

    const TlbStats &stats() const { return stats_; }

    /** Pages covered summed over all fills (reach accounting). */
    std::uint64_t pagesCoveredByFills() const { return covered_; }

    /** Fills that coalesced at least two pages. */
    std::uint64_t coalescedFills() const { return coalescedFills_; }

    /** Currently valid entries (oracle cross-checks). */
    unsigned validEntries() const { return array_.validEntries(); }

  private:
    struct Payload
    {
        /** Coalesced: PFN of group page 0, valid where mask bits
         *  set. Per-page: the page's own PFN, mask == 0. */
        Pfn basePfn = invalidPfn;

        /** Which group pages this entry translates (0 = per-page). */
        std::uint8_t mask = 0;
    };

    /** Tag form for a coalesced entry covering a whole group. */
    static std::uint64_t
    tagGroup(Asid asid, Vpn group)
    {
        return (std::uint64_t{asid} << 40) | group;
    }

    /** Tag form for a regular (uncoalesced) per-page entry. */
    static std::uint64_t
    tagPage(Asid asid, Vpn vpn)
    {
        return (std::uint64_t{1} << 63) | (std::uint64_t{asid} << 40) |
               vpn;
    }

    SetAssocArray<Payload> array_;
    TlbStats stats_;
    std::uint64_t covered_ = 0;
    std::uint64_t coalescedFills_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_TLB_COALESCED_TLB_HH_
