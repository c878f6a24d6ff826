/**
 * @file
 * The conventional per-process page table: a 4-level radix tree over
 * 36-bit VPNs mapping each virtual page to a full PFN, with 2 MiB
 * huge-page mappings supported at the next-to-last level (as on x86).
 */

#ifndef MOSAIC_PT_VANILLA_PAGE_TABLE_HH_
#define MOSAIC_PT_VANILLA_PAGE_TABLE_HH_

#include <cstdint>

#include "pt/radix_tree.hh"
#include "util/types.hh"

namespace mosaic
{

/** A conventional page-table entry. */
struct Pte
{
    Pfn pfn = invalidPfn;
    bool present = false;
};

/** Result of a page-table walk. */
struct VanillaWalkResult
{
    /** PFN of the 4 KiB frame backing the address. */
    Pfn pfn = invalidPfn;

    /** True when a translation exists. */
    bool present = false;

    /** True when the translation came from a 2 MiB mapping. */
    bool huge = false;

    /** Page-table node visits the walk performed. */
    unsigned memRefs = 0;
};

/** Per-process conventional page table. */
class VanillaPageTable
{
  public:
    VanillaPageTable();

    /** Install a 4 KiB mapping. */
    void map(Vpn vpn, Pfn pfn);

    /**
     * Install a 2 MiB mapping. @p vpn may be any page inside the
     * region; @p base_pfn is the first frame of the physically
     * contiguous 2 MiB run.
     */
    void mapHuge(Vpn vpn, Pfn base_pfn);

    /** Remove the 4 KiB mapping of a page, if any. */
    void unmap(Vpn vpn);

    /** Walk the tree for a VPN. */
    VanillaWalkResult
    walk(Vpn vpn) const
    {
        VanillaWalkResult out;
        const Pte *pte = tree4k_.find(vpn, &out.memRefs);
        if (pte && pte->present) {
            out.pfn = pte->pfn;
            out.present = true;
            return out;
        }
        walkHuge(vpn, out);
        return out;
    }

    /** Number of present 4 KiB mappings. */
    std::uint64_t mapped4k() const { return mapped4k_; }

    /** Number of present 2 MiB mappings. */
    std::uint64_t mappedHuge() const { return mappedHuge_; }

  private:
    /** The rest of a walk that found no 4 KiB mapping: a 2 MiB
     *  mapping, if any, replaces @p out; otherwise @p out keeps the
     *  4 KiB descent's refs. */
    void walkHuge(Vpn vpn, VanillaWalkResult &out) const;

    /** Leaf granule: 512 4 KiB PTEs, or one huge mapping. */
    RadixTree<Pte> tree4k_;
    RadixTree<Pte> treeHuge_;
    std::uint64_t mapped4k_ = 0;
    std::uint64_t mappedHuge_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_PT_VANILLA_PAGE_TABLE_HH_
