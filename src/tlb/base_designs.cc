#include "tlb/base_designs.hh"

#include <array>
#include <cstdint>
#include <optional>
#include <span>

namespace mosaic
{

// ---------------------------------------------------------------- vanilla

bool
VanillaDesign::fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    counters_.walkRefs += walker.walkLevels();
    const std::optional<Pfn> pfn = walker.pfnOf(asid, vpn);
    if (!pfn)
        return false;
    tlb_.fill(asid, vpn, *pfn);
    return true;
}

bool
VanillaDesign::access(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (tlb_.lookup(asid, vpn))
        return true;
    fillFromWalk(asid, vpn, walker);
    return false;
}

bool
VanillaDesign::accessHuge(Asid asid, Vpn vpn, Pfn pfn)
{
    if (tlb_.lookup(asid, vpn))
        return true;
    tlb_.fillHuge(asid, vpn, pfn - vpn % pagesPerHugePage);
    return false;
}

std::optional<Pfn>
VanillaDesign::contains(Asid asid, Vpn vpn) const
{
    return tlb_.contains(asid, vpn);
}

bool
VanillaDesign::prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (tlb_.contains(asid, vpn))
        return false;
    return fillFromWalk(asid, vpn, walker);
}

void
VanillaDesign::invalidatePage(Asid asid, Vpn vpn)
{
    tlb_.invalidate(asid, vpn);
}

void
VanillaDesign::flushAsid(Asid asid)
{
    tlb_.flushAsid(asid);
}

// ----------------------------------------------------------------- mosaic

bool
MosaicDesign::fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    counters_.walkRefs += walker.walkLevels();
    std::array<Cpfn, maxArity> toc;
    const std::span<Cpfn> view(toc.data(), tlb_.arity());
    walker.tocOf(asid, vpn, tlb_.arity(), view);
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
    tlb_.fill(asid, vpn, view, unmapped);
    return true;
}

bool
MosaicDesign::access(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (tlb_.lookup(asid, vpn))
        return true;
    fillFromWalk(asid, vpn, walker);
    return false;
}

bool
MosaicDesign::accessHuge(Asid asid, Vpn vpn, Pfn pfn)
{
    // Mosaic TLBs cache huge-mapped pages as conventional entries,
    // one full entry per 4 KiB page.
    if (tlb_.lookupConventional(asid, vpn))
        return true;
    tlb_.fillConventional(asid, vpn, pfn);
    return false;
}

std::optional<Pfn>
MosaicDesign::contains(Asid asid, Vpn vpn) const
{
    const std::optional<Cpfn> cpfn = tlb_.contains(asid, vpn);
    if (!cpfn)
        return std::nullopt;
    return *cpfn;
}

bool
MosaicDesign::prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (tlb_.contains(asid, vpn))
        return false;
    return fillFromWalk(asid, vpn, walker);
}

void
MosaicDesign::invalidatePage(Asid asid, Vpn vpn)
{
    tlb_.invalidateSub(asid, vpn);
}

void
MosaicDesign::flushAsid(Asid asid)
{
    tlb_.flushAsid(asid);
}

// -------------------------------------------------------------- coalesced

bool
CoalescedDesign::fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    counters_.walkRefs += walker.walkLevels();
    const std::optional<Pfn> pfn = walker.pfnOf(asid, vpn);
    if (!pfn)
        return false;
    // Each neighbour-PTE probe the coalescing fill makes is one extra
    // page-table reference.
    tlb_.fill(asid, vpn, *pfn, [&](Vpn neighbour) {
        ++counters_.walkRefs;
        return walker.pfnOf(asid, neighbour);
    });
    return true;
}

bool
CoalescedDesign::access(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (tlb_.lookup(asid, vpn))
        return true;
    fillFromWalk(asid, vpn, walker);
    return false;
}

std::optional<Pfn>
CoalescedDesign::contains(Asid asid, Vpn vpn) const
{
    return tlb_.contains(asid, vpn);
}

bool
CoalescedDesign::prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (tlb_.contains(asid, vpn))
        return false;
    return fillFromWalk(asid, vpn, walker);
}

void
CoalescedDesign::invalidatePage(Asid asid, Vpn vpn)
{
    tlb_.invalidate(asid, vpn);
}

void
CoalescedDesign::flushAsid(Asid asid)
{
    tlb_.flushAsid(asid);
}

DesignCounters
CoalescedDesign::counters() const
{
    DesignCounters c = counters_;
    c.regionFills = tlb_.coalescedFills();
    return c;
}

// ------------------------------------------------------------- perforated

bool
PerforatedDesign::fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    counters_.walkRefs += walker.walkLevels();
    const std::optional<Pfn> pfn = walker.pfnOf(asid, vpn);
    if (!pfn)
        return false;

    const unsigned off = static_cast<unsigned>(vpn % pagesPerHugePage);
    // When the region entry is already cached, this miss was a hole:
    // cache the hole page's own 4 KiB translation. Likewise when the
    // frame cannot anchor an aligned region (base would underflow).
    if (tlb_.hasPerforatedEntry(asid, vpn) || *pfn < off) {
        tlb_.fill4k(asid, vpn, *pfn);
        return true;
    }

    // First touch of the region: probe every other sub-page's PTE to
    // build the hole bitmap (one reference each), then install the
    // perforated 2 MiB entry.
    const Pfn base = *pfn - off;
    const Vpn region_first = vpn - off;
    HoleBitmap holes{};
    for (unsigned i = 0; i < pagesPerHugePage; ++i) {
        if (i == off)
            continue;
        ++counters_.walkRefs;
        const std::optional<Pfn> sub = walker.pfnOf(asid, region_first + i);
        if (!sub || *sub != base + i)
            setHole(holes, i);
    }
    tlb_.fillPerforated(asid, vpn, base, holes);
    ++counters_.regionFills;
    return true;
}

bool
PerforatedDesign::access(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (tlb_.lookup(asid, vpn))
        return true;
    fillFromWalk(asid, vpn, walker);
    return false;
}

std::optional<Pfn>
PerforatedDesign::contains(Asid asid, Vpn vpn) const
{
    return tlb_.contains(asid, vpn);
}

bool
PerforatedDesign::prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (tlb_.contains(asid, vpn))
        return false;
    return fillFromWalk(asid, vpn, walker);
}

void
PerforatedDesign::invalidatePage(Asid asid, Vpn vpn)
{
    tlb_.invalidate(asid, vpn);
}

void
PerforatedDesign::flushAsid(Asid asid)
{
    tlb_.flushAsid(asid);
}

} // namespace mosaic
