/**
 * @file
 * A range TLB (RMM/redundant-memory-mappings lineage, Karakostas et
 * al., ISCA '15; Virtuoso's rangelb): each entry caches one
 * contiguity run — a span of pages that is contiguous in both
 * virtual and physical space — mined from the mapper at fill time
 * (mem/contiguity.hh). Reach per entry equals the run length, so this
 * design's reach is exactly the contiguity the allocator produced:
 * the contiguity-*dependent* endpoint of the bake-off spectrum, with
 * mosaic at the contiguity-free end.
 *
 * The array is fully associative with true-LRU replacement, like
 * hardware range TLBs (they are small). Entries of one ASID are kept
 * disjoint: a fill drops every same-ASID entry overlapping the new
 * run before installing it, so at most one entry covers any page.
 */

#ifndef MOSAIC_TLB_RANGE_TLB_HH_
#define MOSAIC_TLB_RANGE_TLB_HH_

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/contiguity.hh"
#include "tlb/tlb_stats.hh"
#include "tlb/translation_design.hh"
#include "util/types.hh"

namespace mosaic
{

/** Range-TLB sizing. */
struct RangeTlbConfig
{
    /** Fully associative range entries. */
    unsigned entries = 32;

    /** Longest run one entry may cover (pages). */
    std::uint64_t maxRun = 512;
};

/** Fully associative LRU cache of contiguity runs; misses mine a
 *  run through the walker. */
class RangeTlb final : public TranslationDesign
{
  public:
    explicit RangeTlb(const RangeTlbConfig &config);

    bool access(Asid asid, Vpn vpn, TranslationWalker &walker) override;

    /** The PFN lookup(asid, vpn) would return right now; no stats,
     *  no recency. */
    std::optional<Pfn> contains(Asid asid, Vpn vpn) const override;

    bool prefetchFill(Asid asid, Vpn vpn,
                      TranslationWalker &walker) override;

    /** Drop the whole run covering one page, if any. */
    void invalidatePage(Asid asid, Vpn vpn) override;

    /** Drop all runs of an address space. */
    void flushAsid(Asid asid) override;

    const TlbStats &stats() const override { return stats_; }

    /** Pages translatable without a walk: total cached run length. */
    std::uint64_t reachPages() const override;

    unsigned validEntries() const override;

  private:
    struct Entry
    {
        Asid asid = 0;
        ContigRun run{};
        Tick lastUse = 0;
        bool valid = false;
    };

    /** Translate; nullopt on a miss. */
    std::optional<Pfn> lookup(Asid asid, Vpn vpn);

    /**
     * Install a run, evicting overlapping same-ASID entries first
     * (each counts as an eviction) and then the LRU entry if the
     * array is full.
     */
    void fill(Asid asid, const ContigRun &run);

    /** Walk, mine the contiguity run around @p vpn and install it;
     *  false when the page is unmapped. */
    bool fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker);

    std::vector<Entry> entries_;
    TlbStats stats_;
    Tick useClock_ = 0;
    std::uint64_t maxRun_;
};

} // namespace mosaic

#endif // MOSAIC_TLB_RANGE_TLB_HH_
