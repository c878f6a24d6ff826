/**
 * @file
 * TranslationDesign adapters for the four paper TLB variants. Each
 * adapter owns a concrete TLB (unit tests still drive the bare
 * classes; the fuzzer drives the adapters) and adds the fill policy
 * that turns a walker answer into installed entries, charging the
 * modeled walk cost:
 *  - vanilla: one radix walk, one 4 KiB fill;
 *  - mosaic: one radix walk returns the whole ToC, one fill covers up
 *    to `arity` pages (the paper's reach mechanism);
 *  - coalesced: one radix walk plus 7 neighbour-PTE probes to harvest
 *    group contiguity (CoLT);
 *  - perforated: one radix walk plus 511 neighbour probes on the
 *    first touch of a region, building the hole bitmap; later misses
 *    in the region fill single hole pages.
 */

#ifndef MOSAIC_TLB_BASE_DESIGNS_HH_
#define MOSAIC_TLB_BASE_DESIGNS_HH_

#include "tlb/coalesced_tlb.hh"
#include "tlb/mosaic_tlb.hh"
#include "tlb/perforated_tlb.hh"
#include "tlb/translation_design.hh"
#include "tlb/vanilla_tlb.hh"

namespace mosaic
{

/** Conventional unified TLB, one page per entry. */
class VanillaDesign : public TranslationDesign
{
  public:
    explicit VanillaDesign(const TlbGeometry &geometry)
        : TranslationDesign("vanilla"), tlb_(geometry)
    {
    }

    bool access(Asid asid, Vpn vpn, TranslationWalker &walker) override;
    bool accessHuge(Asid asid, Vpn vpn, Pfn pfn) override;
    std::optional<Pfn> contains(Asid asid, Vpn vpn) const override;
    bool prefetchFill(Asid asid, Vpn vpn,
                      TranslationWalker &walker) override;
    void invalidatePage(Asid asid, Vpn vpn) override;
    void flushAsid(Asid asid) override;
    const TlbStats &stats() const override { return tlb_.stats(); }
    std::uint64_t reachPages() const override { return tlb_.reachPages(); }
    unsigned validEntries() const override { return tlb_.validEntries(); }
    void prefetchSets(Vpn vpn) const override { tlb_.prefetchSets(vpn); }

  private:
    bool fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker);

    VanillaTlb tlb_;
};

/** Mosaic TLB: MVPN-indexed ToC entries. */
class MosaicDesign : public TranslationDesign
{
  public:
    MosaicDesign(const TlbGeometry &geometry, unsigned arity)
        : TranslationDesign("mosaic:arity=" + std::to_string(arity)),
          tlb_(geometry, arity)
    {
    }

    bool access(Asid asid, Vpn vpn, TranslationWalker &walker) override;
    bool accessHuge(Asid asid, Vpn vpn, Pfn pfn) override;
    std::optional<Pfn> contains(Asid asid, Vpn vpn) const override;
    bool prefetchFill(Asid asid, Vpn vpn,
                      TranslationWalker &walker) override;
    void invalidatePage(Asid asid, Vpn vpn) override;
    void flushAsid(Asid asid) override;
    const TlbStats &stats() const override { return tlb_.stats(); }
    std::uint64_t reachPages() const override { return tlb_.reachPages(); }
    unsigned validEntries() const override { return tlb_.validEntries(); }
    void prefetchSets(Vpn vpn) const override { tlb_.prefetchSets(vpn); }

  private:
    bool fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker);

    MosaicTlb tlb_;
};

/** CoLT-style coalesced TLB. */
class CoalescedDesign : public TranslationDesign
{
  public:
    explicit CoalescedDesign(const TlbGeometry &geometry)
        : TranslationDesign("coalesced"), tlb_(geometry)
    {
    }

    bool access(Asid asid, Vpn vpn, TranslationWalker &walker) override;
    std::optional<Pfn> contains(Asid asid, Vpn vpn) const override;
    bool prefetchFill(Asid asid, Vpn vpn,
                      TranslationWalker &walker) override;
    void invalidatePage(Asid asid, Vpn vpn) override;
    void flushAsid(Asid asid) override;
    const TlbStats &stats() const override { return tlb_.stats(); }
    DesignCounters counters() const override;
    std::uint64_t reachPages() const override { return tlb_.reachPages(); }
    std::uint64_t
    regionPages() const override
    {
        return tlb_.pagesCoveredByFills();
    }
    unsigned validEntries() const override { return tlb_.validEntries(); }

  private:
    bool fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker);

    CoalescedTlb tlb_;
};

/** Perforated-pages TLB. */
class PerforatedDesign : public TranslationDesign
{
  public:
    explicit PerforatedDesign(const TlbGeometry &geometry)
        : TranslationDesign("perforated"), tlb_(geometry)
    {
    }

    bool access(Asid asid, Vpn vpn, TranslationWalker &walker) override;
    std::optional<Pfn> contains(Asid asid, Vpn vpn) const override;
    bool prefetchFill(Asid asid, Vpn vpn,
                      TranslationWalker &walker) override;
    void invalidatePage(Asid asid, Vpn vpn) override;
    void flushAsid(Asid asid) override;
    const TlbStats &stats() const override { return tlb_.stats(); }
    std::uint64_t reachPages() const override { return tlb_.reachPages(); }
    unsigned validEntries() const override { return tlb_.validEntries(); }

  private:
    bool fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker);

    PerforatedTlb tlb_;
};

} // namespace mosaic

#endif // MOSAIC_TLB_BASE_DESIGNS_HH_
