#include "tlb/coalesced_tlb.hh"

#include <bit>

namespace mosaic
{

CoalescedTlb::CoalescedTlb(const TlbGeometry &geometry)
    : TranslationDesign("coalesced"), array_(geometry)
{
}

bool
CoalescedTlb::fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    counters_.walkRefs += walker.walkLevels();
    const std::optional<Pfn> pfn = walker.pfnOf(asid, vpn);
    if (!pfn)
        return false;
    // Each neighbour-PTE probe the coalescing fill makes is one extra
    // page-table reference.
    fill(asid, vpn, *pfn, [&](Vpn neighbour) {
        ++counters_.walkRefs;
        return walker.pfnOf(asid, neighbour);
    });
    return true;
}

bool
CoalescedTlb::access(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (lookup(asid, vpn))
        return true;
    fillFromWalk(asid, vpn, walker);
    return false;
}

bool
CoalescedTlb::prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (contains(asid, vpn))
        return false;
    return fillFromWalk(asid, vpn, walker);
}

std::optional<Pfn>
CoalescedTlb::lookup(Asid asid, Vpn vpn)
{
    ++stats_.accesses;
    const Vpn group = vpn / coalesceFactor;
    const unsigned off = vpn % coalesceFactor;

    // Probe the coalesced (group) tag form first, then the per-page
    // form — like CoLT's mixed regular/coalesced entry design.
    if (auto *e = array_.find(group, tagGroup(asid, group))) {
        if (e->payload.mask & (1u << off)) {
            ++stats_.hits;
            return e->payload.basePfn + off;
        }
    }
    if (auto *e = array_.find(vpn, tagPage(asid, vpn))) {
        ++stats_.hits;
        return e->payload.basePfn;
    }
    ++stats_.misses;
    return std::nullopt;
}

void
CoalescedTlb::fill(Asid asid, Vpn vpn, Pfn pfn,
                   const std::function<std::optional<Pfn>(Vpn)> &pfn_of)
{
    const Vpn group = vpn / coalesceFactor;
    const unsigned off = vpn % coalesceFactor;
    const Pfn base = pfn - off;

    // Harvest the contiguity of the aligned group: every page whose
    // frame sits at the matching offset from this page's frame.
    std::uint8_t mask = static_cast<std::uint8_t>(1u << off);
    if (pfn >= off) { // otherwise base would underflow: no run
        for (unsigned i = 0; i < coalesceFactor; ++i) {
            if (i == off)
                continue;
            const std::optional<Pfn> neighbour =
                pfn_of(group * coalesceFactor + i);
            if (neighbour && *neighbour == base + i)
                mask |= static_cast<std::uint8_t>(1u << i);
        }
    }

    covered_ += std::popcount(mask);

    if (std::popcount(mask) == 1) {
        // Nothing to coalesce: a regular per-page entry.
        bool evicted = false;
        auto &e = array_.allocate(vpn, tagPage(asid, vpn), &evicted);
        if (evicted)
            ++stats_.evictions;
        e.payload.basePfn = pfn;
        e.payload.mask = 0;
        return;
    }

    ++counters_.regionFills;
    const std::uint64_t t = tagGroup(asid, group);
    auto *e = array_.find(group, t);
    if (e && e->payload.basePfn != base &&
            std::popcount(e->payload.mask) >= std::popcount(mask)) {
        // A better-covered run of this group is already cached
        // (the group holds several disjoint runs). Keep it and cache
        // this page as a regular entry instead of thrashing.
        bool evicted = false;
        auto &page_entry =
            array_.allocate(vpn, tagPage(asid, vpn), &evicted);
        if (evicted)
            ++stats_.evictions;
        page_entry.payload.basePfn = pfn;
        page_entry.payload.mask = 0;
        return;
    }
    if (!e) {
        bool evicted = false;
        e = &array_.allocate(group, t, &evicted);
        if (evicted)
            ++stats_.evictions;
    }
    e->payload.basePfn = base;
    e->payload.mask = mask;
}

void
CoalescedTlb::invalidatePage(Asid asid, Vpn vpn)
{
    const Vpn group = vpn / coalesceFactor;
    const unsigned off = vpn % coalesceFactor;
    if (auto *e = array_.find(group, tagGroup(asid, group))) {
        if (e->payload.mask & (1u << off)) {
            e->payload.mask &= static_cast<std::uint8_t>(~(1u << off));
            ++stats_.invalidations;
        }
    }
    if (array_.invalidate(vpn, tagPage(asid, vpn)))
        ++stats_.invalidations;
}

void
CoalescedTlb::flushAsid(Asid asid)
{
    const std::uint64_t asid_bits = std::uint64_t{asid} << 40;
    const std::uint64_t mask = std::uint64_t{0xFFFF} << 40;
    stats_.invalidations += array_.invalidateIf(
        [&](std::uint64_t tag, const Payload &) {
            return (tag & mask) == asid_bits;
        });
}

std::optional<Pfn>
CoalescedTlb::contains(Asid asid, Vpn vpn) const
{
    const Vpn group = vpn / coalesceFactor;
    const unsigned off = vpn % coalesceFactor;
    if (const auto *e = array_.peek(group, tagGroup(asid, group))) {
        if (e->payload.mask & (1u << off))
            return e->payload.basePfn + off;
    }
    if (const auto *e = array_.peek(vpn, tagPage(asid, vpn)))
        return e->payload.basePfn;
    return std::nullopt;
}

std::uint64_t
CoalescedTlb::reachPages() const
{
    std::uint64_t pages = 0;
    array_.forEachValid([&](std::uint64_t tag, const Payload &p) {
        // Bit 63 marks the per-page tag form (always one page). A
        // group entry reaches its mask popcount — possibly 0 when
        // invalidations cleared every bit.
        if (tag >> 63)
            ++pages;
        else
            pages += static_cast<unsigned>(std::popcount(p.mask));
    });
    return pages;
}

} // namespace mosaic
