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
 *
 * As a TranslationDesign the first miss in a region costs one radix
 * walk plus 511 neighbour probes that build the hole bitmap; later
 * misses in the region (holes) fill single 4 KiB pages.
 */

#ifndef MOSAIC_TLB_PERFORATED_TLB_HH_
#define MOSAIC_TLB_PERFORATED_TLB_HH_

#include <array>
#include <cstdint>
#include <optional>

#include "tlb/set_assoc.hh"
#include "tlb/tlb_stats.hh"
#include "tlb/translation_design.hh"
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
class PerforatedTlb final : public TranslationDesign
{
  public:
    explicit PerforatedTlb(const TlbGeometry &geometry);

    bool access(Asid asid, Vpn vpn, TranslationWalker &walker) override;

    /** The PFN lookup(asid, vpn) would return right now; no stats,
     *  no recency. */
    std::optional<Pfn> contains(Asid asid, Vpn vpn) const override;

    bool prefetchFill(Asid asid, Vpn vpn,
                      TranslationWalker &walker) override;

    /**
     * Drop the coverage of one page: its 4 KiB entry if cached, and —
     * when a perforated entry covers it — punch a hole so the region
     * entry stops translating it (the rest of the region stays).
     */
    void invalidatePage(Asid asid, Vpn vpn) override;

    /** Drop all entries of an address space. */
    void flushAsid(Asid asid) override;

    const TlbStats &stats() const override { return stats_; }

    /** 4 KiB pages translatable without a walk (512 minus holes per
     *  perforated entry, 1 per 4 KiB entry). */
    std::uint64_t reachPages() const override;

    unsigned validEntries() const override { return array_.validEntries(); }

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

    /** Is a perforated entry for vpn's region cached? No stats, no
     *  recency (the fill-policy probe). */
    bool hasPerforatedEntry(Asid asid, Vpn vpn) const;

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

    /** Walk and install the region entry or a hole page; false
     *  when the page is unmapped. */
    bool fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker);

    SetAssocArray<Payload> array_;
    TlbStats stats_;
};

} // namespace mosaic

#endif // MOSAIC_TLB_PERFORATED_TLB_HH_
