/**
 * @file
 * The mosaic page table (paper §3.1, Figure 5): a radix tree whose
 * leaves map MVPNs to tables of contents (ToCs) — one CPFN per base
 * page of the mosaic page, `arity` CPFNs in all — instead of PFNs.
 */

#ifndef MOSAIC_PT_MOSAIC_PAGE_TABLE_HH_
#define MOSAIC_PT_MOSAIC_PAGE_TABLE_HH_

#include <cstdint>
#include <span>

#include "pt/radix_tree.hh"
#include "tlb/mosaic_tlb.hh"
#include "util/types.hh"

namespace mosaic
{

/** Result of a mosaic page-table walk. */
struct MosaicWalkResult
{
    /** The mosaic page's arity-CPFN ToC; empty when no leaf exists. */
    std::span<const Cpfn> toc;

    /** CPFN of the requested page (== unmapped code if absent). */
    Cpfn cpfn = 0;

    /** True when the requested page has a valid CPFN. */
    bool present = false;

    /** Page-table node visits the walk performed. */
    unsigned memRefs = 0;
};

/** Per-process mosaic page table. */
class MosaicPageTable
{
  public:
    /**
     * @param arity sub-pages per mosaic page (power of two, <= 64).
     * @param unmapped_code the CPFN codec's invalid sentinel.
     */
    MosaicPageTable(unsigned arity, Cpfn unmapped_code);

    unsigned arity() const { return arity_; }
    Cpfn unmappedCode() const { return unmapped_; }

    Mvpn mvpnOf(Vpn vpn) const { return vpn >> log2Arity_; }
    unsigned offsetOf(Vpn vpn) const { return vpn & (arity_ - 1); }

    /** Set the CPFN of one base page. */
    void setCpfn(Vpn vpn, Cpfn cpfn);

    /** Clear the CPFN of one base page (marks it unmapped). */
    void clearCpfn(Vpn vpn) { setCpfn(vpn, unmapped_); }

    /** Walk for a VPN; also yields the whole ToC for TLB fill. */
    MosaicWalkResult
    walk(Vpn vpn) const
    {
        MosaicWalkResult out;
        const Cpfn *toc = tree_.find(mvpnOf(vpn), &out.memRefs);
        if (toc)
            out.toc = std::span<const Cpfn>(toc, arity_);
        out.cpfn = toc ? toc[offsetOf(vpn)] : unmapped_;
        out.present = out.cpfn != unmapped_;
        return out;
    }

    /** Number of base pages currently mapped. */
    std::uint64_t mappedPages() const { return mapped_; }

  private:
    RadixTree<Cpfn> tree_; // MVPN -> its ToC, arity leaves wide
    unsigned arity_;
    unsigned log2Arity_;
    Cpfn unmapped_;
    std::uint64_t mapped_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_PT_MOSAIC_PAGE_TABLE_HH_
