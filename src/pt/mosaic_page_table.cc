#include "pt/mosaic_page_table.hh"

#include "mem/geometry.hh"

namespace mosaic
{

MosaicPageTable::MosaicPageTable(unsigned arity, Cpfn unmapped_code)
    : tree_(vpnBits - ceilLog2(arity), arity, unmapped_code),
      arity_(arity),
      log2Arity_(ceilLog2(arity)),
      unmapped_(unmapped_code)
{
    ensure(arity >= 1 && arity <= maxArity, "mosaic_pt: arity range");
    ensure((arity & (arity - 1)) == 0, "mosaic_pt: arity power of two");
}

void
MosaicPageTable::setCpfn(Vpn vpn, Cpfn cpfn)
{
    Cpfn *toc = &tree_.getOrCreate(mvpnOf(vpn));
    Cpfn &slot = toc[offsetOf(vpn)];
    if (slot == unmapped_ && cpfn != unmapped_)
        ++mapped_;
    else if (slot != unmapped_ && cpfn == unmapped_)
        --mapped_;
    slot = cpfn;
}

} // namespace mosaic
