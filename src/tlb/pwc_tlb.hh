/**
 * @file
 * A two-level page-walk cache (MMU cache; Barr et al., ISCA '10;
 * Virtuoso's PWC lineage) wrapped around a base TranslationDesign.
 *
 * The PWC caches upper-level page-table entries by VPN prefix: L1
 * holds depth-3 prefixes (vpn >> 9 — everything but the leaf index),
 * L2 holds depth-2 prefixes (vpn >> 18). A walk that hits a cached
 * prefix skips the already-resolved levels, so the wrapper *discounts*
 * the modeled walk cost the base design charged: an L1 hit skips 3 of
 * the 4 radix levels, an L2 hit skips 2. TLB hit/miss behaviour is
 * untouched — only the walkRefs column of the bake-off moves.
 */

#ifndef MOSAIC_TLB_PWC_TLB_HH_
#define MOSAIC_TLB_PWC_TLB_HH_

#include <cstdint>
#include <memory>

#include "tlb/set_assoc.hh"
#include "tlb/translation_design.hh"

namespace mosaic
{

/** Page-walk-cache sizing. */
struct PwcConfig
{
    /** Fully associative entries caching depth-3 prefixes. */
    unsigned l1Entries = 16;

    /** Fully associative entries caching depth-2 prefixes. */
    unsigned l2Entries = 8;
};

/**
 * The cache proper: two fully associative LRU arrays keyed by
 * (asid, depth, prefix). Kept separate from the wrapping design so
 * the oracle can instantiate its own copy on OracleSetAssoc.
 */
class TwoLevelPwc
{
  public:
    /** x86-64 radix constants shared with the oracle model. */
    static constexpr unsigned fanoutBits = 9;
    static constexpr unsigned walkDepth = 4;

    explicit TwoLevelPwc(const PwcConfig &config)
        : l1_(TlbGeometry{config.l1Entries, config.l1Entries}),
          l2_(TlbGeometry{config.l2Entries, config.l2Entries})
    {
    }

    /** VPN prefix covering the first @p depth walk levels. */
    static Vpn
    prefix(Vpn vpn, unsigned depth)
    {
        return vpn >> ((walkDepth - depth) * fanoutBits);
    }

    static std::uint64_t
    tag(Asid asid, unsigned depth, Vpn pfx)
    {
        return (std::uint64_t{asid} << 44) |
               (std::uint64_t{depth} << 40) | pfx;
    }

    /**
     * Walk levels a walk of (asid, vpn) may skip right now: 3 on an
     * L1 hit, 2 on an L2 hit, 0 otherwise. Refreshes recency.
     */
    unsigned
    skippable(Asid asid, Vpn vpn)
    {
        const Vpn p3 = prefix(vpn, 3);
        if (l1_.find(p3, tag(asid, 3, p3)))
            return 3;
        const Vpn p2 = prefix(vpn, 2);
        if (l2_.find(p2, tag(asid, 2, p2)))
            return 2;
        return 0;
    }

    /** Install both prefix levels after a completed walk. */
    void
    fill(Asid asid, Vpn vpn)
    {
        bool evicted = false;
        const Vpn p3 = prefix(vpn, 3);
        if (!l1_.find(p3, tag(asid, 3, p3)))
            l1_.allocate(p3, tag(asid, 3, p3), &evicted);
        const Vpn p2 = prefix(vpn, 2);
        if (!l2_.find(p2, tag(asid, 2, p2)))
            l2_.allocate(p2, tag(asid, 2, p2), &evicted);
    }

    void
    flushAsid(Asid asid)
    {
        const auto match = [asid](std::uint64_t t, const Empty &) {
            return (t >> 44) == asid;
        };
        l1_.invalidateIf(match);
        l2_.invalidateIf(match);
    }

    unsigned
    validEntries() const
    {
        return l1_.validEntries() + l2_.validEntries();
    }

  private:
    struct Empty
    {
    };

    SetAssocArray<Empty> l1_;
    SetAssocArray<Empty> l2_;
};

/** PWC wrapper: base design plus modeled walk-cost discounting. */
class PwcDesign : public TranslationDesign
{
  public:
    PwcDesign(const PwcConfig &config,
              std::unique_ptr<TranslationDesign> base);

    bool access(Asid asid, Vpn vpn, TranslationWalker &walker) override;
    std::optional<Pfn> contains(Asid asid, Vpn vpn) const override;
    bool prefetchFill(Asid asid, Vpn vpn,
                      TranslationWalker &walker) override;
    void invalidatePage(Asid asid, Vpn vpn) override;
    void flushAsid(Asid asid) override;
    const TlbStats &stats() const override { return base_->stats(); }
    DesignCounters counters() const override;
    std::uint64_t reachPages() const override
    {
        return base_->reachPages();
    }
    std::uint64_t regionPages() const override
    {
        return base_->regionPages();
    }
    unsigned validEntries() const override
    {
        return base_->validEntries();
    }

    const TranslationDesign &base() const { return *base_; }
    unsigned pwcValidEntries() const { return pwc_.validEntries(); }

  private:
    std::unique_ptr<TranslationDesign> base_;
    TwoLevelPwc pwc_;
    std::uint64_t discount_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_TLB_PWC_TLB_HH_
