#include "tlb/mosaic_tlb.hh"

#include <string>

#include "mem/geometry.hh"

namespace mosaic
{

MosaicTlb::MosaicTlb(const TlbGeometry &geometry, unsigned arity)
    : TranslationDesign("mosaic:arity=" + std::to_string(arity)),
      array_(geometry), arity_(arity), log2Arity_(ceilLog2(arity))
{
    ensure(arity >= 1 && arity <= maxArity, "mosaic_tlb: arity range");
    ensure((arity & (arity - 1)) == 0, "mosaic_tlb: arity power of two");
}

bool
MosaicTlb::fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    counters_.walkRefs += walker.walkLevels();
    std::array<Cpfn, maxArity> toc;
    const std::span<Cpfn> view(toc.data(), arity_);
    walker.tocOf(asid, vpn, arity_, view);
    const Cpfn unmapped = walker.unmappedCode();
    bool any_mapped = false;
    for (const Cpfn code : view) {
        if (code != unmapped) {
            any_mapped = true;
            break;
        }
    }
    // An all-absent ToC means the whole mosaic page is unmapped; the
    // walk found nothing worth caching.
    if (!any_mapped)
        return false;
    fill(asid, vpn, view, unmapped);
    return true;
}

bool
MosaicTlb::access(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (lookup(asid, vpn))
        return true;
    fillFromWalk(asid, vpn, walker);
    return false;
}

bool
MosaicTlb::accessHuge(Asid asid, Vpn vpn, Pfn pfn)
{
    if (lookupConventional(asid, vpn))
        return true;
    fillConventional(asid, vpn, pfn);
    return false;
}

bool
MosaicTlb::prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (contains(asid, vpn))
        return false;
    return fillFromWalk(asid, vpn, walker);
}

std::optional<Cpfn>
MosaicTlb::lookup(Asid asid, Vpn vpn)
{
    ++stats_.accesses;
    const Mvpn mvpn = mvpnOf(vpn);
    if (auto *e = array_.find(mvpn, tagMosaic(asid, mvpn))) {
        const Cpfn cpfn = e->payload.cpfns[offsetOf(vpn)];
        if (cpfn != absentCpfn) {
            ++stats_.hits;
            return cpfn;
        }
        // Entry present, sub-page absent: a miss that a sub-entry
        // fill can satisfy without an eviction. The fill itself is
        // counted in fill(), when (and if) it actually happens.
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.misses;
    return std::nullopt;
}

void
MosaicTlb::fill(Asid asid, Vpn vpn, std::span<const Cpfn> toc,
                Cpfn unmapped_code)
{
    ensure(toc.size() == arity_, "mosaic_tlb: ToC size != arity");
    const Mvpn mvpn = mvpnOf(vpn);
    const std::uint64_t tag = tagMosaic(asid, mvpn);

    auto *e = array_.find(mvpn, tag);
    if (!e) {
        bool evicted = false;
        e = &array_.allocate(mvpn, tag, &evicted);
        if (evicted)
            ++stats_.evictions;
    } else {
        // Refilling an entry that is already present: a sub-entry
        // fill (§3.1) — the ToC was cached but the accessed sub-page's
        // CPFN was not yet valid.
        ++stats_.subEntryFills;
    }
    for (unsigned i = 0; i < arity_; ++i) {
        e->payload.cpfns[i] =
            toc[i] == unmapped_code ? absentCpfn : toc[i];
    }
    e->payload.conventional = false;
}

std::optional<Pfn>
MosaicTlb::lookupConventional(Asid asid, Vpn vpn)
{
    ++stats_.accesses;
    if (auto *e = array_.find(vpn, tagConventional(asid, vpn))) {
        ++stats_.hits;
        return e->payload.conventionalPfn;
    }
    ++stats_.misses;
    return std::nullopt;
}

void
MosaicTlb::fillConventional(Asid asid, Vpn vpn, Pfn pfn)
{
    bool evicted = false;
    auto &e = array_.allocate(vpn, tagConventional(asid, vpn), &evicted);
    if (evicted)
        ++stats_.evictions;
    e.payload.conventional = true;
    e.payload.conventionalPfn = pfn;
}

void
MosaicTlb::invalidatePage(Asid asid, Vpn vpn)
{
    const Mvpn mvpn = mvpnOf(vpn);
    if (auto *e = array_.find(mvpn, tagMosaic(asid, mvpn))) {
        Cpfn &slot = e->payload.cpfns[offsetOf(vpn)];
        if (slot != absentCpfn) {
            slot = absentCpfn;
            ++stats_.invalidations;
        }
    }
}

void
MosaicTlb::flushAsid(Asid asid)
{
    const std::uint64_t asid_bits = std::uint64_t{asid} << 40;
    const std::uint64_t mask = std::uint64_t{0xFFFF} << 40;
    stats_.invalidations += array_.invalidateIf(
        [&](std::uint64_t tag, const Payload &) {
            return (tag & mask) == asid_bits;
        });
}

std::optional<Pfn>
MosaicTlb::contains(Asid asid, Vpn vpn) const
{
    const Mvpn mvpn = mvpnOf(vpn);
    const auto *e = array_.peek(mvpn, tagMosaic(asid, mvpn));
    if (!e || e->payload.cpfns[offsetOf(vpn)] == absentCpfn)
        return std::nullopt;
    return e->payload.cpfns[offsetOf(vpn)];
}

std::uint64_t
MosaicTlb::reachPages() const
{
    std::uint64_t pages = 0;
    array_.forEachValid([&](std::uint64_t, const Payload &p) {
        if (p.conventional) {
            ++pages;
            return;
        }
        for (unsigned i = 0; i < arity_; ++i)
            pages += p.cpfns[i] != absentCpfn ? 1 : 0;
    });
    return pages;
}

} // namespace mosaic
