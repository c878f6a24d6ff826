/**
 * @file
 * The conventional ("vanilla") TLB baseline: a unified TLB for 4 KiB
 * and 2 MiB pages, matching the simulated platform in Table 1a. Each
 * entry maps one virtual page (of either size) to a full PFN.
 *
 * As a TranslationDesign its fill policy is one radix walk and one
 * 4 KiB fill per miss; huge-mapped (kernel) pages fill 2 MiB entries.
 */

#ifndef MOSAIC_TLB_VANILLA_TLB_HH_
#define MOSAIC_TLB_VANILLA_TLB_HH_

#include <optional>

#include "tlb/set_assoc.hh"
#include "tlb/tlb_stats.hh"
#include "tlb/translation_design.hh"
#include "util/types.hh"

namespace mosaic
{

/** Unified 4 KiB / 2 MiB set-associative TLB with LRU replacement. */
class VanillaTlb final : public TranslationDesign
{
  public:
    explicit VanillaTlb(const TlbGeometry &geometry);

    bool access(Asid asid, Vpn vpn, TranslationWalker &walker) override;
    bool accessHuge(Asid asid, Vpn vpn, Pfn pfn) override;

    /** The PFN lookup(asid, vpn) would return right now; no stats,
     *  no recency. */
    std::optional<Pfn> contains(Asid asid, Vpn vpn) const override;

    bool prefetchFill(Asid asid, Vpn vpn,
                      TranslationWalker &walker) override;

    /** Drop the translation of one 4 KiB page, if cached. */
    void invalidatePage(Asid asid, Vpn vpn) override;

    /** Drop all translations of an address space. */
    void flushAsid(Asid asid) override;

    const TlbStats &stats() const override { return stats_; }

    /** 4 KiB pages translatable without a walk (huge entry = 512). */
    std::uint64_t reachPages() const override;

    unsigned validEntries() const override { return array_.validEntries(); }

    /**
     * Translate a (ASID, VPN). Probes both the 4 KiB and the 2 MiB
     * tag forms, like a unified hardware TLB. Returns the PFN of the
     * 4 KiB frame containing the address on a hit, nullopt on a miss.
     */
    std::optional<Pfn> lookup(Asid asid, Vpn vpn);

    /** Install a 4 KiB translation after a walk. */
    void fill(Asid asid, Vpn vpn, Pfn pfn);

    /**
     * Install a 2 MiB translation. @p base_pfn is the PFN of the
     * first 4 KiB frame of the physically contiguous 2 MiB region.
     */
    void fillHuge(Asid asid, Vpn vpn, Pfn base_pfn);

  private:
    struct Payload
    {
        Pfn pfn = invalidPfn;
        bool huge = false;
    };

    static std::uint64_t
    tag4k(Asid asid, Vpn vpn)
    {
        return (std::uint64_t{asid} << 40) | vpn;
    }

    static std::uint64_t
    tagHuge(Asid asid, Vpn vpn)
    {
        // Bit 63 distinguishes huge tags from 4 KiB tags.
        const Vpn huge_vpn = vpn >> 9;
        return (std::uint64_t{1} << 63) | (std::uint64_t{asid} << 40) |
               huge_vpn;
    }

    /** Walk and install one 4 KiB page; false when it is unmapped. */
    bool fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker);

    SetAssocArray<Payload> array_;
    TlbStats stats_;
};

} // namespace mosaic

#endif // MOSAIC_TLB_VANILLA_TLB_HH_
