#include "tlb/perforated_tlb.hh"

#include <bit>

namespace mosaic
{

PerforatedTlb::PerforatedTlb(const TlbGeometry &geometry)
    : array_(geometry)
{
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
PerforatedTlb::invalidate(Asid asid, Vpn vpn)
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
