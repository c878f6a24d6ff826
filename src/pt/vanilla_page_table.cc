#include "pt/vanilla_page_table.hh"

namespace mosaic
{

// 36-bit VPN space -> 4 radix levels; 27-bit huge-VPN space -> 3,
// matching an x86 walk that stops one level early for 2 MiB pages.
VanillaPageTable::VanillaPageTable()
    : tree4k_(vpnBits), treeHuge_(vpnBits - 9)
{
}

void
VanillaPageTable::map(Vpn vpn, Pfn pfn)
{
    Pte &pte = tree4k_.getOrCreate(vpn);
    if (!pte.present)
        ++mapped4k_;
    pte.pfn = pfn;
    pte.present = true;
}

void
VanillaPageTable::mapHuge(Vpn vpn, Pfn base_pfn)
{
    Pte &pte = treeHuge_.getOrCreate(vpn >> 9);
    if (!pte.present)
        ++mappedHuge_;
    pte.pfn = base_pfn;
    pte.present = true;
}

void
VanillaPageTable::unmap(Vpn vpn)
{
    if (Pte *pte = tree4k_.find(vpn); pte && pte->present) {
        pte->present = false;
        pte->pfn = invalidPfn;
        --mapped4k_;
    }
}

void
VanillaPageTable::walkHuge(Vpn vpn, VanillaWalkResult &out) const
{
    // A real walk would have found a huge PTE at the L2 level of the
    // same tree; modeling it as a second, shorter tree keeps the ref
    // count right (3 node visits) without a variant node type.
    unsigned huge_refs = 0;
    const Pte *hpte = treeHuge_.find(vpn >> 9, &huge_refs);
    if (hpte && hpte->present) {
        out.pfn = hpte->pfn + (vpn & 0x1FF);
        out.present = true;
        out.huge = true;
        out.memRefs = huge_refs;
    }
}

} // namespace mosaic
