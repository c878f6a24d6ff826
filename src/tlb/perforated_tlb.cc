#include "tlb/perforated_tlb.hh"

#include <bit>

namespace mosaic
{

PerforatedTlb::PerforatedTlb(const TlbGeometry &geometry)
    : TranslationDesign("perforated"), array_(geometry)
{
}

bool
PerforatedTlb::fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    counters_.walkRefs += walker.walkLevels();
    const std::optional<Pfn> pfn = walker.pfnOf(asid, vpn);
    if (!pfn)
        return false;

    const unsigned off = static_cast<unsigned>(vpn % pagesPerHugePage);
    // When the region entry is already cached, this miss was a hole:
    // cache the hole page's own 4 KiB translation. Likewise when the
    // frame cannot anchor an aligned region (base would underflow).
    if (hasPerforatedEntry(asid, vpn) || *pfn < off) {
        fill4k(asid, vpn, *pfn);
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
    fillPerforated(asid, vpn, base, holes);
    ++counters_.regionFills;
    return true;
}

bool
PerforatedTlb::access(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (lookup(asid, vpn))
        return true;
    fillFromWalk(asid, vpn, walker);
    return false;
}

bool
PerforatedTlb::prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (contains(asid, vpn))
        return false;
    return fillFromWalk(asid, vpn, walker);
}

std::optional<Pfn>
PerforatedTlb::lookup(Asid asid, Vpn vpn)
{
    ++stats_.accesses;
    const Vpn huge_vpn = vpn >> 9;
    const unsigned off = vpn & 0x1FF;

    if (auto *e = array_.find(huge_vpn, tagHuge(asid, huge_vpn))) {
        if (!isHole(e->payload.holes, off)) {
            ++stats_.hits;
            return e->payload.basePfn + off;
        }
        // A hole: fall through to the 4 KiB side.
    }
    if (auto *e = array_.find(vpn, tagPage(asid, vpn))) {
        ++stats_.hits;
        return e->payload.basePfn;
    }
    ++stats_.misses;
    return std::nullopt;
}

void
PerforatedTlb::fillPerforated(Asid asid, Vpn vpn, Pfn base_pfn,
                              const HoleBitmap &holes)
{
    const Vpn huge_vpn = vpn >> 9;
    bool evicted = false;
    auto &e = array_.allocate(huge_vpn, tagHuge(asid, huge_vpn),
                              &evicted);
    if (evicted)
        ++stats_.evictions;
    e.payload.basePfn = base_pfn;
    e.payload.holes = holes;
    e.payload.huge = true;
}

void
PerforatedTlb::fill4k(Asid asid, Vpn vpn, Pfn pfn)
{
    bool evicted = false;
    auto &e = array_.allocate(vpn, tagPage(asid, vpn), &evicted);
    if (evicted)
        ++stats_.evictions;
    e.payload.basePfn = pfn;
    e.payload.huge = false;
}

void
PerforatedTlb::invalidatePage(Asid asid, Vpn vpn)
{
    const Vpn huge_vpn = vpn >> 9;
    const unsigned off = vpn & 0x1FF;
    if (auto *e = array_.find(huge_vpn, tagHuge(asid, huge_vpn))) {
        if (!isHole(e->payload.holes, off)) {
            setHole(e->payload.holes, off);
            ++stats_.invalidations;
        }
    }
    if (array_.invalidate(vpn, tagPage(asid, vpn)))
        ++stats_.invalidations;
}

void
PerforatedTlb::flushAsid(Asid asid)
{
    const std::uint64_t asid_bits = std::uint64_t{asid} << 40;
    const std::uint64_t mask = std::uint64_t{0xFFFF} << 40;
    stats_.invalidations += array_.invalidateIf(
        [&](std::uint64_t tag, const Payload &) {
            return (tag & mask) == asid_bits;
        });
}

bool
PerforatedTlb::hasPerforatedEntry(Asid asid, Vpn vpn) const
{
    const Vpn huge_vpn = vpn >> 9;
    return array_.peek(huge_vpn, tagHuge(asid, huge_vpn)) != nullptr;
}

std::optional<Pfn>
PerforatedTlb::contains(Asid asid, Vpn vpn) const
{
    const Vpn huge_vpn = vpn >> 9;
    const unsigned off = vpn & 0x1FF;
    if (const auto *e = array_.peek(huge_vpn, tagHuge(asid, huge_vpn))) {
        if (!isHole(e->payload.holes, off))
            return e->payload.basePfn + off;
    }
    if (const auto *e = array_.peek(vpn, tagPage(asid, vpn)))
        return e->payload.basePfn;
    return std::nullopt;
}

std::uint64_t
PerforatedTlb::reachPages() const
{
    std::uint64_t pages = 0;
    array_.forEachValid([&](std::uint64_t, const Payload &p) {
        if (!p.huge) {
            ++pages;
            return;
        }
        unsigned holes = 0;
        for (const std::uint64_t word : p.holes)
            holes += static_cast<unsigned>(std::popcount(word));
        pages += pagesPerHugePage - holes;
    });
    return pages;
}

} // namespace mosaic
