#include "os/linux_vm.hh"

#include <algorithm>

namespace mosaic
{

LinuxVm::LinuxVm(const LinuxVmConfig &config)
    : config_(config),
      free_(config.numFrames),
      frames_(config.numFrames),
      lru_(config.numFrames)
{
    reserve_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(config.numFrames) *
               config.watermarkFraction));
}

VanillaPageTable &
LinuxVm::lookupTable(Asid asid)
{
    auto [table, inserted] = tables_.emplace(asid);
    if (inserted)
        table = std::make_unique<VanillaPageTable>();
    lastAsid_ = asid;
    lastTable_ = table.get();
    return *lastTable_;
}

void
LinuxVm::unmapRange(Asid asid, Vpn vpn, std::size_t npages)
{
    VanillaPageTable &pt = pageTable(asid);
    for (std::size_t i = 0; i < npages; ++i) {
        const Vpn v = vpn + i;
        swap_.invalidate(packPageId(PageId{asid, v}));
        const VanillaWalkResult walk = pt.walk(v);
        if (!walk.present)
            continue;
        frames_.unmap(walk.pfn);
        free_.release(walk.pfn);
        pt.unmap(v);
    }
}

void
LinuxVm::reclaim()
{
    for (unsigned i = 0; i < config_.reclaimBatch; ++i) {
        const Pfn pfn = lru_.popOldest(frames_);
        if (pfn == invalidPfn)
            break;
        const Frame &f = frames_.frame(pfn);
        if (f.dirty) {
            swap_.writeOut(packPageId(f.owner));
            ++stats_.swapOuts;
            if (stats_.firstSwapOutUtilization < 0)
                stats_.firstSwapOutUtilization = frames_.utilization();
        }
        pageTable(f.owner.asid).unmap(f.owner.vpn);
        frames_.unmap(pfn);
        free_.release(pfn);
    }
}

Pfn
LinuxVm::touch(Asid asid, Vpn vpn, bool write)
{
    ++clock_;
    // Reclaim and unmapRange free a frame as they unmap its page, so
    // a frame still used by this page is the one its PTE names.
    if (!frames_.holds(lastPfn_, PageId{asid, vpn})) {
        VanillaPageTable &pt = pageTable(asid);
        const VanillaWalkResult walk = pt.walk(vpn);
        if (!walk.present)
            return lastPfn_ = fault(pt, asid, vpn, write);
        lastPfn_ = walk.pfn;
    }
    frames_.touch(lastPfn_, clock_, write);
    lru_.append(frames_, lastPfn_);
    return lastPfn_;
}

Pfn
LinuxVm::fault(VanillaPageTable &pt, Asid asid, Vpn vpn, bool write)
{
    const std::uint64_t key = packPageId(PageId{asid, vpn});
    const bool major = swap_.contains(key);

    if (free_.freeFrames() <= reserve_)
        reclaim();

    const std::optional<Pfn> pfn = free_.allocate();
    ensure(pfn.has_value(), "linux_vm: reclaim failed to free frames");

    const bool dirty = !major || write;
    frames_.map(*pfn, PageId{asid, vpn}, clock_, dirty);
    pt.map(vpn, *pfn);
    lru_.append(frames_, *pfn);

    if (major) {
        swap_.readIn(key);
        ++stats_.swapIns;
        ++stats_.majorFaults;
    } else {
        ++stats_.minorFaults;
    }
    return *pfn;
}

} // namespace mosaic
