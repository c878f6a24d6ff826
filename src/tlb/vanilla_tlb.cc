#include "tlb/vanilla_tlb.hh"

namespace mosaic
{

VanillaTlb::VanillaTlb(const TlbGeometry &geometry)
    : array_(geometry)
{
}

std::optional<Pfn>
VanillaTlb::lookup(Asid asid, Vpn vpn)
{
    ++stats_.accesses;

    if (auto *e = array_.find(vpn, tag4k(asid, vpn))) {
        ++stats_.hits;
        return e->payload.pfn;
    }

    const Vpn huge_vpn = vpn >> 9;
    if (auto *e = array_.find(huge_vpn, tagHuge(asid, vpn))) {
        ++stats_.hits;
        // PFN of the 4 KiB frame inside the huge region.
        return e->payload.pfn + (vpn & 0x1FF);
    }

    ++stats_.misses;
    return std::nullopt;
}

void
VanillaTlb::fill(Asid asid, Vpn vpn, Pfn pfn)
{
    bool evicted = false;
    auto &e = array_.allocate(vpn, tag4k(asid, vpn), &evicted);
    if (evicted)
        ++stats_.evictions;
    e.payload.pfn = pfn;
    e.payload.huge = false;
}

void
VanillaTlb::fillHuge(Asid asid, Vpn vpn, Pfn base_pfn)
{
    const Vpn huge_vpn = vpn >> 9;
    bool evicted = false;
    auto &e = array_.allocate(huge_vpn, tagHuge(asid, vpn), &evicted);
    if (evicted)
        ++stats_.evictions;
    e.payload.pfn = base_pfn;
    e.payload.huge = true;
}

void
VanillaTlb::invalidate(Asid asid, Vpn vpn)
{
    if (array_.invalidate(vpn, tag4k(asid, vpn)))
        ++stats_.invalidations;
}

void
VanillaTlb::flushAsid(Asid asid)
{
    const std::uint64_t asid_bits = std::uint64_t{asid} << 40;
    const std::uint64_t mask = std::uint64_t{0xFFFF} << 40;
    stats_.invalidations += array_.invalidateIf(
        [&](std::uint64_t tag, const Payload &) {
            return (tag & mask) == asid_bits;
        });
}

std::optional<Pfn>
VanillaTlb::contains(Asid asid, Vpn vpn) const
{
    if (const auto *e = array_.peek(vpn, tag4k(asid, vpn)))
        return e->payload.pfn;
    if (const auto *e = array_.peek(vpn >> 9, tagHuge(asid, vpn)))
        return e->payload.pfn + (vpn & 0x1FF);
    return std::nullopt;
}

std::uint64_t
VanillaTlb::reachPages() const
{
    std::uint64_t pages = 0;
    array_.forEachValid([&](std::uint64_t, const Payload &p) {
        pages += p.huge ? pagesPerHugePage : 1;
    });
    return pages;
}

} // namespace mosaic
