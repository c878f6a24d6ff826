#include "os/mosaic_vm.hh"

#include <algorithm>
#include <optional>

namespace mosaic
{

MosaicVm::MosaicVm(const MosaicVmConfig &config)
    : config_(config),
      allocator_(config.geometry),
      frames_(config.geometry.numFrames),
      ghosts_(config.geometry.numFrames)
{
    liveCap_ = config_.policy == EvictionPolicy::ShrunkenCache
        ? static_cast<std::size_t>(
              static_cast<double>(frames_.numFrames()) *
              (1.0 - config_.shrinkDelta))
        : frames_.numFrames();
}

MosaicPageTable &
MosaicVm::lookupTable(Asid asid)
{
    auto [table, inserted] = tables_.emplace(asid);
    if (inserted) {
        table = std::make_unique<MosaicPageTable>(
            config_.arity, allocator_.mapper().codec().invalid());
    }
    lastAsid_ = asid;
    lastTable_ = table.get();
    return *lastTable_;
}

std::size_t
MosaicVm::numFrames() const
{
    return frames_.numFrames();
}

std::size_t
MosaicVm::residentPages() const
{
    return frames_.usedFrames();
}

bool
MosaicVm::isGhostFrame(Pfn pfn) const
{
    const Frame &f = frames_.frame(pfn);
    return f.used && f.lastAccess < horizon_;
}

void
MosaicVm::reapGhosts()
{
    ghosts_.reap(frames_, horizon_);
}

void
MosaicVm::noteFrameFreed(Pfn pfn)
{
    ghosts_.noteFreed(pfn, isGhostFrame(pfn));
}

void
MosaicVm::evictFrame(Pfn pfn)
{
    const Frame &f = frames_.frame(pfn);
    if (f.dirty) {
        swap_.writeOut(packPageId(f.owner));
        ++stats_.swapOuts;
        if (stats_.firstSwapOutUtilization < 0)
            stats_.firstSwapOutUtilization = frames_.utilization();
    }
    pageTable(f.owner.asid).clearCpfn(f.owner.vpn);
    noteFrameFreed(pfn);
    frames_.unmap(pfn);
}

void
MosaicVm::unmapRange(Asid asid, Vpn vpn, std::size_t npages)
{
    MosaicPageTable &pt = pageTable(asid);
    for (std::size_t i = 0; i < npages; ++i) {
        const Vpn v = vpn + i;
        const std::uint64_t key = packPageId(PageId{asid, v});
        swap_.invalidate(key);
        const MosaicWalkResult walk = pt.walk(v);
        if (!walk.present)
            continue;
        // Unlike eviction, releasing a range writes nothing back:
        // the contents are dead.
        const Pfn pfn = allocator_.mapper().pfnOf(key, walk.cpfn);
        pt.clearCpfn(v);
        noteFrameFreed(pfn);
        frames_.unmap(pfn);
    }
}

Pfn
MosaicVm::touch(Asid asid, Vpn vpn, bool write)
{
    ++clock_;
    // A page keeps a frame it owns mapped for as long as the frame is
    // used by it (DESIGN.md §12.1), so the last touch's frame, still
    // owned by this page, is where the walk would lead.
    const PageId id{asid, vpn};
    if (frames_.holds(lastPfn_, id))
        return touchResident(lastPfn_, write);
    // Walk before hashing: a resident page's CPFN names the one hash
    // output its PFN needs, so only a fault computes the full
    // candidate set.
    const std::uint64_t hash_input = packPageId(id);
    const MosaicWalkResult walk = pageTable(asid).walk(vpn);
    if (walk.present) {
        lastPfn_ = allocator_.mapper().pfnOf(hash_input, walk.cpfn);
        return touchResident(lastPfn_, write);
    }
    return lastPfn_ = touchAbsent(asid, vpn, write, hash_input);
}

Pfn
MosaicVm::touchResident(Pfn pfn, bool write)
{
    if (frames_.lastAccessOf(pfn) < horizon_) {
        // A resident ghost was referenced again: a strict global
        // LRU would have evicted it; Horizon LRU rescues it. It
        // rejoins the recency order as most recently used.
        ++stats_.ghostRescues;
        ghosts_.rescue(pfn);
    }
    frames_.touch(pfn, clock_, write);
    ghosts_.record(frames_, pfn);
    return pfn;
}

Pfn
MosaicVm::touchAbsent(Asid asid, Vpn vpn, bool write,
                      std::uint64_t hash_input)
{
    // Page fault. Every path below changes a page->frame mapping.
    MosaicPageTable &pt = pageTable(asid);
    const bool major = swap_.contains(hash_input);
    const CandidateSet cand = allocator_.mapper().candidates(hash_input);

    // ShrunkenCache holds live pages below (1 - delta)p by evicting
    // the global LRU page first, so placement usually finds room. Its
    // horizon stays 0, so the recency log's oldest live frame is that
    // page.
    if (config_.policy == EvictionPolicy::ShrunkenCache &&
            frames_.usedFrames() >= liveCap_ && frames_.usedFrames() > 0) {
        evictFrame(ghosts_.popOldest(frames_));
    }

    std::optional<Placement> placement =
        allocator_.place(cand, frames_, ghosts_.bits());
    if (!placement) {
        // Associativity conflict: every candidate slot holds a live
        // page. Evict the LRU candidate; under Horizon LRU, also
        // raise the horizon to its access time, ghosting everything
        // older (§2.4).
        ++stats_.conflicts;
        if (stats_.firstConflictUtilization < 0)
            stats_.firstConflictUtilization = frames_.utilization();
        const Placement victim = allocator_.lruCandidate(cand, frames_);
        if (config_.policy == EvictionPolicy::HorizonLru) {
            horizon_ = std::max(horizon_,
                                frames_.frame(victim.pfn).lastAccess);
            reapGhosts();
        }
        evictFrame(victim.pfn);
        placement = Placement{victim.pfn, victim.cpfn, false};
    } else if (placement->evictsGhost) {
        ++stats_.ghostEvictions;
        evictFrame(placement->pfn);
    }

    // A page read back from swap starts clean; anything else (a
    // fresh zero-filled page) must be written out if ever evicted.
    const bool dirty = !major || write;
    frames_.map(placement->pfn, PageId{asid, vpn}, clock_, dirty);
    ghosts_.record(frames_, placement->pfn);
    pt.setCpfn(vpn, placement->cpfn);

    if (major) {
        swap_.readIn(hash_input);
        ++stats_.swapIns;
        ++stats_.majorFaults;
    } else {
        ++stats_.minorFaults;
    }

    if (samplingSteadyState_ || frames_.utilization() >= 0.98) {
        samplingSteadyState_ = true;
        stats_.steadyUtilization.add(frames_.utilization());
    }
    return placement->pfn;
}

} // namespace mosaic
