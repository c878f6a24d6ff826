/**
 * @file
 * A perforated-pages TLB (Park et al., ISCA '20; paper §5.1): a
 * 2 MiB entry whose bitmap marks 4 KiB "holes" — sub-pages redirected
 * to individual frames elsewhere because the physical region wasn't
 * entirely free. Hole pages are cached as regular 4 KiB entries in
 * the same array.
 *
 * This is the contiguity-*tolerant* middle ground between THP
 * (all-or-nothing 2 MiB runs) and Mosaic (no contiguity at all): it
 * survives moderate fragmentation by filling holes, but still needs
 * a mostly-free aligned 2 MiB window per region.
 */

#ifndef MOSAIC_TLB_PERFORATED_TLB_HH_
#define MOSAIC_TLB_PERFORATED_TLB_HH_

#include <array>
#include <cstdint>
#include <optional>

#include "tlb/set_assoc.hh"
#include "tlb/tlb_stats.hh"
#include "util/types.hh"

namespace mosaic
{

/** 512-bit hole bitmap of one 2 MiB region. */
using HoleBitmap = std::array<std::uint64_t, 8>;

/** Set/test helpers. */
inline void
setHole(HoleBitmap &bitmap, unsigned off)
{
    bitmap[off / 64] |= std::uint64_t{1} << (off % 64);
}

inline bool
isHole(const HoleBitmap &bitmap, unsigned off)
{
    return (bitmap[off / 64] >> (off % 64)) & 1;
}

/** TLB with perforated 2 MiB entries plus 4 KiB hole entries. */
class PerforatedTlb
{
  public:
    explicit PerforatedTlb(const TlbGeometry &geometry);

    /** Translate; nullopt on a miss (including uncached holes). */
    std::optional<Pfn> lookup(Asid asid, Vpn vpn);

    /**
     * Install a perforated 2 MiB entry. @p base_pfn backs sub-page 0
     * of the region; @p holes marks redirected sub-pages.
     */
    void fillPerforated(Asid asid, Vpn vpn, Pfn base_pfn,
                        const HoleBitmap &holes);

    /** Install the 4 KiB translation of one hole (or plain) page. */
    void fill4k(Asid asid, Vpn vpn, Pfn pfn);

    /**
     * Drop the coverage of one page: its 4 KiB entry if cached, and —
     * when a perforated entry covers it — punch a hole so the region
     * entry stops translating it (the rest of the region stays).
     */
    void invalidate(Asid asid, Vpn vpn);

    /** Drop all entries of an address space. */
    void flushAsid(Asid asid);

    /** Is a perforated entry for vpn's region cached? No stats, no
     *  recency (the fill-policy probe). */
    bool hasPerforatedEntry(Asid asid, Vpn vpn) const;

    /** The PFN lookup(asid, vpn) would return right now; no stats,
     *  no recency. */
    std::optional<Pfn> contains(Asid asid, Vpn vpn) const;

    /** 4 KiB pages translatable without a walk (512 minus holes per
     *  perforated entry, 1 per 4 KiB entry). */
    std::uint64_t reachPages() const;

    const TlbStats &stats() const { return stats_; }

    /** Currently valid entries (oracle cross-checks). */
    unsigned validEntries() const { return array_.validEntries(); }

  private:
    struct Payload
    {
        Pfn basePfn = invalidPfn;
        HoleBitmap holes{};
        bool huge = false;
    };

    static std::uint64_t
    tagHuge(Asid asid, Vpn huge_vpn)
    {
        return (std::uint64_t{asid} << 40) | huge_vpn;
    }

    static std::uint64_t
    tagPage(Asid asid, Vpn vpn)
    {
        return (std::uint64_t{1} << 63) | (std::uint64_t{asid} << 40) |
               vpn;
    }

    SetAssocArray<Payload> array_;
    TlbStats stats_;
};

} // namespace mosaic

#endif // MOSAIC_TLB_PERFORATED_TLB_HH_
