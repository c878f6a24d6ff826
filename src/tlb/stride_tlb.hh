/**
 * @file
 * A stride TLB prefetcher (Virtuoso/gem5 lineage; Kandiraju &
 * Sivasubramaniam, ISCA '02): wraps *any* base TranslationDesign and,
 * on each base miss, prefetch-fills the pages a detected per-ASID
 * stride predicts will miss next. Two modes:
 *  - fixed: always prefetch the next `degree` sequential pages
 *    (distance prefetching with stride +1);
 *  - arbitrary: track the last observed inter-reference stride per
 *    ASID and prefetch along it only once the same stride is seen
 *    twice in a row (confirmation avoids polluting the base TLB on
 *    random access patterns).
 *
 * Prefetch walks are charged to walkRefs through the base design —
 * prefetching trades page-table references for latency, and the
 * bake-off shows both sides of that trade.
 */

#ifndef MOSAIC_TLB_STRIDE_TLB_HH_
#define MOSAIC_TLB_STRIDE_TLB_HH_

#include <cstdint>
#include <memory>

#include "tlb/translation_design.hh"
#include "util/flat_map.hh"

namespace mosaic
{

/** Stride-prefetcher knobs. */
struct StrideConfig
{
    /** false: fixed +1 stride; true: detect arbitrary strides. */
    bool arbitrary = false;

    /** Pages prefetched per triggering miss. */
    unsigned degree = 2;
};

/** Stride prefetcher wrapped around a base design. */
class StrideDesign : public TranslationDesign
{
  public:
    StrideDesign(StrideConfig config,
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
    void prefetchSets(Vpn vpn) const override { base_->prefetchSets(vpn); }

    const TranslationDesign &base() const { return *base_; }

  private:
    /** Per-ASID stride tracking state. */
    struct AsidState
    {
        Vpn lastVpn = 0;
        std::int64_t stride = 0;
        /** 0 = no history, 1 = lastVpn valid, 2 = stride valid. */
        unsigned seen = 0;
    };

    void issue(Asid asid, Vpn target, TranslationWalker &walker);

    StrideConfig config_;
    std::unique_ptr<TranslationDesign> base_;
    FlatMap<Asid, AsidState> state_;
};

} // namespace mosaic

#endif // MOSAIC_TLB_STRIDE_TLB_HH_
