/**
 * @file
 * The conventional ("vanilla") TLB baseline: a unified TLB for 4 KiB
 * and 2 MiB pages, matching the simulated platform in Table 1a. Each
 * entry maps one virtual page (of either size) to a full PFN.
 */

#ifndef MOSAIC_TLB_VANILLA_TLB_HH_
#define MOSAIC_TLB_VANILLA_TLB_HH_

#include <optional>

#include "tlb/set_assoc.hh"
#include "tlb/tlb_stats.hh"
#include "util/types.hh"

namespace mosaic
{

/** Unified 4 KiB / 2 MiB set-associative TLB with LRU replacement. */
class VanillaTlb
{
  public:
    explicit VanillaTlb(const TlbGeometry &geometry);

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

    /** Warm the cache lines lookup(vpn) will scan (4 KiB and huge
     *  sets). Pure performance hint; no stats, no state change. */
    void
    prefetchSets(Vpn vpn) const
    {
        array_.prefetchSet(vpn);
        array_.prefetchSet(vpn >> 9);
    }

    /** Drop the translation of one 4 KiB page, if cached. */
    void invalidate(Asid asid, Vpn vpn);

    /** Drop all translations of an address space. */
    void flushAsid(Asid asid);

    /** The PFN lookup(asid, vpn) would return right now; no stats,
     *  no recency. */
    std::optional<Pfn> contains(Asid asid, Vpn vpn) const;

    /** 4 KiB pages translatable without a walk (huge entry = 512). */
    std::uint64_t reachPages() const;

    const TlbStats &stats() const { return stats_; }
    TlbStats &stats() { return stats_; }
    const TlbGeometry &geometry() const { return array_.geometry(); }

    /** Currently valid entries (oracle cross-checks). */
    unsigned validEntries() const { return array_.validEntries(); }

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

    SetAssocArray<Payload> array_;
    TlbStats stats_;
};

} // namespace mosaic

#endif // MOSAIC_TLB_VANILLA_TLB_HH_
