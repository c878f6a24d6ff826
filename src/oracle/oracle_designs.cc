#include "oracle/oracle_designs.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <list>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "mem/contiguity.hh"
#include "tlb/coalesced_tlb.hh"
#include "tlb/mosaic_tlb.hh"
#include "tlb/perforated_tlb.hh"
#include "util/log.hh"

namespace mosaic
{

bool
OracleDesign::accessHuge(Asid, Vpn, Pfn)
{
    panic("oracle designs: kind has no huge-page policy");
}

namespace
{

// Tag forms mirror the real TLBs exactly; they are part of the
// modelled contract (bit 63 separates the secondary tag space: huge
// vanilla pages, conventional mosaic entries, per-page coalesced and
// perforated entries; ASIDs occupy bits 40+).

std::uint64_t
tagPrimary(Asid asid, std::uint64_t key)
{
    return (std::uint64_t{asid} << 40) | key;
}

std::uint64_t
tagSecondary(Asid asid, std::uint64_t key)
{
    return (std::uint64_t{1} << 63) | tagPrimary(asid, key);
}

bool
isSecondary(std::uint64_t tag)
{
    return tag >> 63;
}

bool
tagHasAsid(std::uint64_t tag, Asid asid)
{
    const std::uint64_t mask = std::uint64_t{0xFFFF} << 40;
    return (tag & mask) == (std::uint64_t{asid} << 40);
}

// ------------------------------------------------------- leaf designs

/**
 * What the four leaf models share: one OracleSetAssoc with its
 * TlbStats, and the access shape of every leaf design — probe, count,
 * and on a miss fill from the walk. Each model supplies the probe
 * (which refreshes recency) and its fill policy.
 */
template <typename Payload>
class OracleLeafDesign : public OracleDesign
{
  public:
    explicit OracleLeafDesign(const TlbGeometry &geometry)
        : array_(geometry)
    {
    }

    bool
    access(Asid asid, Vpn vpn, TranslationWalker &walker) override
    {
        if (count(lookup(asid, vpn)))
            return true;
        fillFromWalk(asid, vpn, walker);
        return false;
    }

    bool
    prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker) override
    {
        if (contains(asid, vpn))
            return false;
        return fillFromWalk(asid, vpn, walker);
    }

    void
    flushAsid(Asid asid) override
    {
        stats_.invalidations += array_.invalidateIf(
            [&](std::uint64_t tag, const Payload &) {
                return tagHasAsid(tag, asid);
            });
    }

    const TlbStats &stats() const override { return stats_; }
    unsigned validEntries() const override { return array_.validEntries(); }

  protected:
    /** Probe for (asid, vpn), refreshing recency on every tag match;
     *  true on a hit. */
    virtual bool lookup(Asid asid, Vpn vpn) = 0;

    /** Walk and install; true when a translation was installed. */
    virtual bool fillFromWalk(Asid asid, Vpn vpn,
                              TranslationWalker &walker) = 0;

    /** Count one translation request. */
    bool
    count(bool hit)
    {
        ++stats_.accesses;
        ++(hit ? stats_.hits : stats_.misses);
        return hit;
    }

    /** Claim an entry; displacing a valid one is an eviction. */
    Payload &
    allocate(std::uint64_t index_key, std::uint64_t tag)
    {
        bool evicted = false;
        Payload &p = array_.allocate(index_key, tag, &evicted);
        if (evicted)
            ++stats_.evictions;
        return p;
    }

    /** Drop the entry holding @p tag, if any. */
    void
    drop(std::uint64_t index_key, std::uint64_t tag)
    {
        if (array_.invalidate(index_key, tag))
            ++stats_.invalidations;
    }

    OracleSetAssoc<Payload> array_;
    TlbStats stats_;
};

/** Reference model of VanillaDesign: the payload is the PFN (of the
 *  region's first frame, for a huge entry). */
class OracleVanillaDesign final : public OracleLeafDesign<Pfn>
{
  public:
    using OracleLeafDesign::OracleLeafDesign;

    bool
    accessHuge(Asid asid, Vpn vpn, Pfn pfn) override
    {
        if (count(lookup(asid, vpn)))
            return true;
        allocate(vpn >> 9, tagSecondary(asid, vpn >> 9)) =
            pfn - vpn % pagesPerHugePage;
        return false;
    }

    std::optional<Pfn>
    contains(Asid asid, Vpn vpn) const override
    {
        if (const Pfn *p = array_.peek(vpn, tagPrimary(asid, vpn)))
            return *p;
        if (const Pfn *p =
                array_.peek(vpn >> 9, tagSecondary(asid, vpn >> 9)))
            return *p + vpn % pagesPerHugePage;
        return std::nullopt;
    }

    void
    invalidatePage(Asid asid, Vpn vpn) override
    {
        drop(vpn, tagPrimary(asid, vpn));
    }

    std::uint64_t
    reachPages() const override
    {
        std::uint64_t pages = 0;
        array_.forEach([&](std::uint64_t tag, const Pfn &) {
            pages += isSecondary(tag) ? pagesPerHugePage : 1;
        });
        return pages;
    }

  private:
    bool
    lookup(Asid asid, Vpn vpn) override
    {
        return array_.find(vpn, tagPrimary(asid, vpn)) ||
               array_.find(vpn >> 9, tagSecondary(asid, vpn >> 9));
    }

    bool
    fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker) override
    {
        counters_.walkRefs += walker.walkLevels();
        const std::optional<Pfn> pfn = walker.pfnOf(asid, vpn);
        if (!pfn)
            return false;
        allocate(vpn, tagPrimary(asid, vpn)) = *pfn;
        return true;
    }
};

/** One mosaic ToC: a CPFN slot per sub-page, absent until filled. */
struct OracleToc
{
    OracleToc() { cpfns.fill(MosaicTlb::absentCpfn); }

    std::array<Cpfn, maxArity> cpfns;
};

/** Reference model of MosaicDesign. Conventional (huge-mapped)
 *  entries use the secondary tag form and an unused ToC. */
class OracleMosaicDesign final : public OracleLeafDesign<OracleToc>
{
  public:
    OracleMosaicDesign(const TlbGeometry &geometry, unsigned arity)
        : OracleLeafDesign(geometry), arity_(arity)
    {
    }

    bool
    accessHuge(Asid asid, Vpn vpn, Pfn) override
    {
        if (count(array_.find(vpn, tagSecondary(asid, vpn)) != nullptr))
            return true;
        allocate(vpn, tagSecondary(asid, vpn));
        return false;
    }

    std::optional<Pfn>
    contains(Asid asid, Vpn vpn) const override
    {
        const Mvpn mvpn = vpn / arity_;
        const OracleToc *toc = array_.peek(mvpn, tagPrimary(asid, mvpn));
        if (!toc || toc->cpfns[vpn % arity_] == MosaicTlb::absentCpfn)
            return std::nullopt;
        return toc->cpfns[vpn % arity_];
    }

    void
    invalidatePage(Asid asid, Vpn vpn) override
    {
        const Mvpn mvpn = vpn / arity_;
        if (OracleToc *toc = array_.find(mvpn, tagPrimary(asid, mvpn))) {
            Cpfn &slot = toc->cpfns[vpn % arity_];
            if (slot != MosaicTlb::absentCpfn) {
                slot = MosaicTlb::absentCpfn;
                ++stats_.invalidations;
            }
        }
    }

    std::uint64_t
    reachPages() const override
    {
        std::uint64_t pages = 0;
        array_.forEach([&](std::uint64_t tag, const OracleToc &toc) {
            if (isSecondary(tag)) {
                ++pages;
                return;
            }
            for (unsigned i = 0; i < arity_; ++i)
                pages += toc.cpfns[i] != MosaicTlb::absentCpfn ? 1 : 0;
        });
        return pages;
    }

  private:
    bool
    lookup(Asid asid, Vpn vpn) override
    {
        const Mvpn mvpn = vpn / arity_;
        const OracleToc *toc = array_.find(mvpn, tagPrimary(asid, mvpn));
        return toc && toc->cpfns[vpn % arity_] != MosaicTlb::absentCpfn;
    }

    bool
    fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker) override
    {
        counters_.walkRefs += walker.walkLevels();
        std::array<Cpfn, maxArity> codes;
        const std::span<Cpfn> view(codes.data(), arity_);
        walker.tocOf(asid, vpn, arity_, view);
        const Cpfn unmapped = walker.unmappedCode();
        if (std::all_of(view.begin(), view.end(),
                        [&](Cpfn c) { return c == unmapped; }))
            return false;
        const Mvpn mvpn = vpn / arity_;
        const std::uint64_t tag = tagPrimary(asid, mvpn);
        OracleToc *toc = array_.find(mvpn, tag);
        if (toc)
            ++stats_.subEntryFills;
        else
            toc = &allocate(mvpn, tag);
        for (unsigned i = 0; i < arity_; ++i)
            toc->cpfns[i] =
                view[i] == unmapped ? MosaicTlb::absentCpfn : view[i];
        return true;
    }

    unsigned arity_;
};

/** A coalesced entry: the PFN of group page 0 plus the pages it
 *  translates; a per-page entry holds its own PFN. */
struct OracleGroup
{
    Pfn basePfn = invalidPfn;
    std::uint8_t mask = 0;
};

/** Reference model of CoalescedDesign (CoLT-8). */
class OracleCoalescedDesign final : public OracleLeafDesign<OracleGroup>
{
  public:
    static constexpr unsigned factor = CoalescedTlb::coalesceFactor;

    using OracleLeafDesign::OracleLeafDesign;

    std::optional<Pfn>
    contains(Asid asid, Vpn vpn) const override
    {
        const unsigned off = vpn % factor;
        const OracleGroup *g =
            array_.peek(vpn / factor, tagPrimary(asid, vpn / factor));
        if (g && (g->mask & (1u << off)))
            return g->basePfn + off;
        if (const OracleGroup *p = array_.peek(vpn, tagSecondary(asid, vpn)))
            return p->basePfn;
        return std::nullopt;
    }

    void
    invalidatePage(Asid asid, Vpn vpn) override
    {
        const unsigned off = vpn % factor;
        OracleGroup *g =
            array_.find(vpn / factor, tagPrimary(asid, vpn / factor));
        if (g && (g->mask & (1u << off))) {
            g->mask &= static_cast<std::uint8_t>(~(1u << off));
            ++stats_.invalidations;
        }
        drop(vpn, tagSecondary(asid, vpn));
    }

    std::uint64_t
    reachPages() const override
    {
        std::uint64_t pages = 0;
        array_.forEach([&](std::uint64_t tag, const OracleGroup &g) {
            pages += isSecondary(tag) ? 1 : std::popcount(g.mask);
        });
        return pages;
    }

    std::uint64_t regionPages() const override { return regionPages_; }

  private:
    bool
    lookup(Asid asid, Vpn vpn) override
    {
        const unsigned off = vpn % factor;
        const OracleGroup *g =
            array_.find(vpn / factor, tagPrimary(asid, vpn / factor));
        if (g && (g->mask & (1u << off)))
            return true;
        return array_.find(vpn, tagSecondary(asid, vpn)) != nullptr;
    }

    bool
    fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker) override
    {
        counters_.walkRefs += walker.walkLevels();
        const std::optional<Pfn> pfn = walker.pfnOf(asid, vpn);
        if (!pfn)
            return false;
        const Vpn group = vpn / factor;
        const unsigned off = vpn % factor;
        const Pfn base = *pfn - off;

        // The 7 neighbour probes, one PTE reference each; a frame
        // below off cannot anchor a run.
        std::uint8_t mask = static_cast<std::uint8_t>(1u << off);
        if (*pfn >= off) {
            for (unsigned i = 0; i < factor; ++i) {
                if (i == off)
                    continue;
                ++counters_.walkRefs;
                const std::optional<Pfn> neighbour =
                    walker.pfnOf(asid, group * factor + i);
                if (neighbour && *neighbour == base + i)
                    mask |= static_cast<std::uint8_t>(1u << i);
            }
        }
        regionPages_ += std::popcount(mask);

        OracleGroup *g = nullptr;
        if (std::popcount(mask) > 1) {
            ++counters_.regionFills;
            g = array_.find(group, tagPrimary(asid, group));
            // Keep a better-covered run of the group that is already
            // cached; this page then gets a per-page entry.
            const bool keep = g && g->basePfn != base &&
                              std::popcount(g->mask) >= std::popcount(mask);
            if (!keep) {
                if (!g)
                    g = &allocate(group, tagPrimary(asid, group));
                *g = OracleGroup{base, mask};
                return true;
            }
        }
        allocate(vpn, tagSecondary(asid, vpn)) = OracleGroup{*pfn, 0};
        return true;
    }

    std::uint64_t regionPages_ = 0;
};

/** A perforated 2 MiB entry: the PFN of sub-page 0 plus its holes; a
 *  4 KiB entry holds its own PFN. */
struct OracleRegion
{
    Pfn basePfn = invalidPfn;
    HoleBitmap holes{};
};

/** Reference model of PerforatedDesign. */
class OraclePerforatedDesign final : public OracleLeafDesign<OracleRegion>
{
  public:
    using OracleLeafDesign::OracleLeafDesign;

    std::optional<Pfn>
    contains(Asid asid, Vpn vpn) const override
    {
        const unsigned off = vpn % pagesPerHugePage;
        const OracleRegion *r =
            array_.peek(vpn >> 9, tagPrimary(asid, vpn >> 9));
        if (r && !isHole(r->holes, off))
            return r->basePfn + off;
        if (const OracleRegion *p =
                array_.peek(vpn, tagSecondary(asid, vpn)))
            return p->basePfn;
        return std::nullopt;
    }

    void
    invalidatePage(Asid asid, Vpn vpn) override
    {
        const unsigned off = vpn % pagesPerHugePage;
        OracleRegion *r = array_.find(vpn >> 9, tagPrimary(asid, vpn >> 9));
        if (r && !isHole(r->holes, off)) {
            setHole(r->holes, off);
            ++stats_.invalidations;
        }
        drop(vpn, tagSecondary(asid, vpn));
    }

    std::uint64_t
    reachPages() const override
    {
        std::uint64_t pages = 0;
        array_.forEach([&](std::uint64_t tag, const OracleRegion &r) {
            if (isSecondary(tag)) {
                ++pages;
                return;
            }
            pages += pagesPerHugePage;
            for (const std::uint64_t word : r.holes)
                pages -= std::popcount(word);
        });
        return pages;
    }

  private:
    bool
    lookup(Asid asid, Vpn vpn) override
    {
        const OracleRegion *r =
            array_.find(vpn >> 9, tagPrimary(asid, vpn >> 9));
        if (r && !isHole(r->holes, vpn % pagesPerHugePage))
            return true;
        return array_.find(vpn, tagSecondary(asid, vpn)) != nullptr;
    }

    bool
    fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker) override
    {
        counters_.walkRefs += walker.walkLevels();
        const std::optional<Pfn> pfn = walker.pfnOf(asid, vpn);
        if (!pfn)
            return false;
        const unsigned off = vpn % pagesPerHugePage;
        // A miss under a cached region entry is a hole; a frame below
        // off cannot anchor an aligned region. Both get a 4 KiB entry.
        if (array_.peek(vpn >> 9, tagPrimary(asid, vpn >> 9)) ||
                *pfn < off) {
            allocate(vpn, tagSecondary(asid, vpn)).basePfn = *pfn;
            return true;
        }
        // First touch of the region: the 511 probes build the holes.
        const Pfn base = *pfn - off;
        HoleBitmap holes{};
        for (unsigned i = 0; i < pagesPerHugePage; ++i) {
            if (i == off)
                continue;
            ++counters_.walkRefs;
            const std::optional<Pfn> sub = walker.pfnOf(asid, vpn - off + i);
            if (!sub || *sub != base + i)
                setHole(holes, i);
        }
        allocate(vpn >> 9, tagPrimary(asid, vpn >> 9)) =
            OracleRegion{base, holes};
        ++counters_.regionFills;
        return true;
    }
};

// ----------------------------------------------------- stride wrapper

class OracleStrideDesign final : public OracleDesign
{
  public:
    OracleStrideDesign(bool arbitrary, unsigned degree,
                       std::unique_ptr<OracleDesign> base)
        : arbitrary_(arbitrary), degree_(degree), base_(std::move(base))
    {
    }

    bool
    access(Asid asid, Vpn vpn, TranslationWalker &walker) override
    {
        AsidState &st = state_[asid];
        std::int64_t stride = 0;
        bool confirmed = false;
        if (st.seen > 0) {
            stride = static_cast<std::int64_t>(vpn) -
                     static_cast<std::int64_t>(st.lastVpn);
            confirmed = st.seen > 1 && stride != 0 && stride == st.stride;
            st.stride = stride;
            st.seen = 2;
        } else {
            st.seen = 1;
        }
        st.lastVpn = vpn;

        const bool hit = base_->access(asid, vpn, walker);
        if (hit)
            return true;

        if (!arbitrary_) {
            for (unsigned k = 1; k <= degree_; ++k)
                issue(asid, vpn + k, walker);
        } else if (confirmed) {
            for (unsigned k = 1; k <= degree_; ++k) {
                const std::int64_t target =
                    static_cast<std::int64_t>(vpn) +
                    stride * static_cast<std::int64_t>(k);
                if (target < 0)
                    break;
                issue(asid, static_cast<Vpn>(target), walker);
            }
        }
        return false;
    }

    std::optional<Pfn>
    contains(Asid asid, Vpn vpn) const override
    {
        return base_->contains(asid, vpn);
    }

    bool
    prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker) override
    {
        return base_->prefetchFill(asid, vpn, walker);
    }

    void
    invalidatePage(Asid asid, Vpn vpn) override
    {
        base_->invalidatePage(asid, vpn);
    }

    void
    flushAsid(Asid asid) override
    {
        base_->flushAsid(asid);
        state_.erase(asid);
    }

    const TlbStats &stats() const override { return base_->stats(); }

    DesignCounters
    counters() const override
    {
        DesignCounters c = base_->counters();
        c.prefetchesIssued = counters_.prefetchesIssued;
        c.prefetchFills = counters_.prefetchFills;
        return c;
    }

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

  private:
    struct AsidState
    {
        Vpn lastVpn = 0;
        std::int64_t stride = 0;
        unsigned seen = 0;
    };

    void
    issue(Asid asid, Vpn target, TranslationWalker &walker)
    {
        ++counters_.prefetchesIssued;
        if (base_->prefetchFill(asid, target, walker))
            ++counters_.prefetchFills;
    }

    bool arbitrary_;
    unsigned degree_;
    std::unique_ptr<OracleDesign> base_;
    std::map<Asid, AsidState> state_;
};

// -------------------------------------------------------- pwc wrapper

/** Recency-list mirror of TwoLevelPwc. */
class OracleTwoLevelPwc
{
  public:
    static constexpr unsigned fanoutBits = 9;
    static constexpr unsigned walkDepth = 4;

    OracleTwoLevelPwc(unsigned l1_entries, unsigned l2_entries)
        : l1_(TlbGeometry{l1_entries, l1_entries}),
          l2_(TlbGeometry{l2_entries, l2_entries})
    {
    }

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

  private:
    struct Empty
    {
    };

    OracleSetAssoc<Empty> l1_;
    OracleSetAssoc<Empty> l2_;
};

class OraclePwcDesign final : public OracleDesign
{
  public:
    OraclePwcDesign(unsigned l1_entries, unsigned l2_entries,
                    std::unique_ptr<OracleDesign> base)
        : base_(std::move(base)), pwc_(l1_entries, l2_entries)
    {
    }

    bool
    access(Asid asid, Vpn vpn, TranslationWalker &walker) override
    {
        const bool hit = base_->access(asid, vpn, walker);
        if (hit)
            return true;
        ++counters_.pwcLookups;
        const unsigned skipped = pwc_.skippable(asid, vpn);
        if (skipped > 0) {
            ++counters_.pwcHits;
            discount_ += std::min<std::uint64_t>(
                skipped, walker.walkLevels() - 1);
        }
        pwc_.fill(asid, vpn);
        return false;
    }

    std::optional<Pfn>
    contains(Asid asid, Vpn vpn) const override
    {
        return base_->contains(asid, vpn);
    }

    bool
    prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker) override
    {
        return base_->prefetchFill(asid, vpn, walker);
    }

    void
    invalidatePage(Asid asid, Vpn vpn) override
    {
        base_->invalidatePage(asid, vpn);
    }

    void
    flushAsid(Asid asid) override
    {
        base_->flushAsid(asid);
        pwc_.flushAsid(asid);
    }

    const TlbStats &stats() const override { return base_->stats(); }

    DesignCounters
    counters() const override
    {
        DesignCounters c = base_->counters();
        c.walkRefs -= discount_;
        c.pwcLookups = counters_.pwcLookups;
        c.pwcHits = counters_.pwcHits;
        return c;
    }

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

  private:
    std::unique_ptr<OracleDesign> base_;
    OracleTwoLevelPwc pwc_;
    std::uint64_t discount_ = 0;
};

// -------------------------------------------------------- range design

class OracleRangeDesign final : public OracleDesign
{
  public:
    OracleRangeDesign(unsigned entries, std::uint64_t max_run)
        : capacity_(entries), maxRun_(max_run)
    {
    }

    bool
    access(Asid asid, Vpn vpn, TranslationWalker &walker) override
    {
        if (lookup(asid, vpn))
            return true;
        fillFromWalk(asid, vpn, walker);
        return false;
    }

    std::optional<Pfn>
    contains(Asid asid, Vpn vpn) const override
    {
        for (const Entry &e : entries_) {
            if (e.asid == asid && e.run.covers(vpn))
                return e.run.basePfn + (vpn - e.run.first);
        }
        return std::nullopt;
    }

    bool
    prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker) override
    {
        if (contains(asid, vpn))
            return false;
        return fillFromWalk(asid, vpn, walker);
    }

    void
    invalidatePage(Asid asid, Vpn vpn) override
    {
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (it->asid == asid && it->run.covers(vpn)) {
                it = entries_.erase(it);
                ++stats_.invalidations;
            } else {
                ++it;
            }
        }
    }

    void
    flushAsid(Asid asid) override
    {
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (it->asid == asid) {
                it = entries_.erase(it);
                ++stats_.invalidations;
            } else {
                ++it;
            }
        }
    }

    const TlbStats &stats() const override { return stats_; }

    std::uint64_t
    reachPages() const override
    {
        std::uint64_t pages = 0;
        for (const Entry &e : entries_)
            pages += e.run.length;
        return pages;
    }

    unsigned validEntries() const override
    {
        return static_cast<unsigned>(entries_.size());
    }

  private:
    struct Entry
    {
        Asid asid = 0;
        ContigRun run{};
    };

    bool
    lookup(Asid asid, Vpn vpn)
    {
        ++stats_.accesses;
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->asid == asid && it->run.covers(vpn)) {
                entries_.splice(entries_.begin(), entries_, it);
                ++stats_.hits;
                return true;
            }
        }
        ++stats_.misses;
        return false;
    }

    bool
    fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker)
    {
        counters_.walkRefs += walker.walkLevels();
        std::uint64_t probes = 0;
        const std::optional<ContigRun> run = mineContigRun(
            [&](Vpn page) { return walker.pfnOf(asid, page); }, vpn,
            maxRun_, &probes);
        counters_.walkRefs += probes;
        if (!run)
            return false;
        fill(asid, *run);
        if (run->length > 1)
            ++counters_.regionFills;
        return true;
    }

    void
    fill(Asid asid, const ContigRun &run)
    {
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (it->asid == asid &&
                it->run.first < run.first + run.length &&
                run.first < it->run.first + it->run.length) {
                it = entries_.erase(it);
                ++stats_.evictions;
            } else {
                ++it;
            }
        }
        if (entries_.size() >= capacity_) {
            entries_.pop_back(); // true-LRU victim
            ++stats_.evictions;
        }
        entries_.push_front(Entry{asid, run});
    }

    unsigned capacity_;
    std::uint64_t maxRun_;
    std::list<Entry> entries_; // front = most recently used
    TlbStats stats_;
};

std::unique_ptr<OracleDesign>
makeLeaf(const std::string &kind, const DesignSpec &spec)
{
    if (kind == "vanilla")
        return std::make_unique<OracleVanillaDesign>(spec.geometry);
    if (kind == "mosaic")
        return std::make_unique<OracleMosaicDesign>(spec.geometry,
                                                    spec.arity);
    if (kind == "coalesced")
        return std::make_unique<OracleCoalescedDesign>(spec.geometry);
    if (kind == "perforated")
        return std::make_unique<OraclePerforatedDesign>(spec.geometry);
    if (kind == "range")
        return std::make_unique<OracleRangeDesign>(spec.ranges,
                                                   spec.maxRun);
    panic("oracle designs: unknown leaf kind '" + kind + "'");
}

} // namespace

std::unique_ptr<OracleDesign>
makeOracleDesign(const DesignSpec &spec)
{
    if (spec.kind == "stride") {
        return std::make_unique<OracleStrideDesign>(
            spec.arbitrary, spec.degree, makeLeaf(spec.base, spec));
    }
    if (spec.kind == "pwc") {
        return std::make_unique<OraclePwcDesign>(
            spec.l1, spec.l2, makeLeaf(spec.base, spec));
    }
    return makeLeaf(spec.kind, spec);
}

} // namespace mosaic
