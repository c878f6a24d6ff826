#include "os/mosaic_vm.hh"

#include <algorithm>
#include <array>
#include <set>

namespace mosaic
{

MosaicVm::MosaicVm(const MosaicVmConfig &config)
    : config_(config),
      allocator_(config.geometry),
      frames_(config.geometry.numFrames),
      rng_(config.seed),
      globalLru_(config.geometry.numFrames),
      ghosts_(config.geometry.numFrames)
{
    liveCap_ = config_.policy == EvictionPolicy::ShrunkenCache
        ? static_cast<std::size_t>(
              static_cast<double>(frames_.numFrames()) *
              (1.0 - config_.shrinkDelta))
        : frames_.numFrames();
    swap_.setFaultInjector(config_.faults);
}

MosaicPageTable &
MosaicVm::pageTable(Asid asid)
{
    auto [table, inserted] = tables_.emplace(asid);
    if (inserted) {
        table = std::make_unique<MosaicPageTable>(
            config_.arity, allocator_.mapper().codec().invalid());
    }
    return *table;
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

std::uint64_t
MosaicVm::locationIdFor(Asid asid, Vpn vpn)
{
    MosaicPageTable &pt = pageTable(asid);
    const TocKey key{asid, pt.mvpnOf(vpn)};
    if (const std::uint64_t *bound = locationIds_.find(key))
        return *bound;
    // Random IDs per §2.5: collisions are tolerable because
    // iceberg hashing is robust to a few duplicate inputs.
    const std::uint64_t loc_id = rng_() >> 6;
    locationIds_[key] = loc_id;
    locUsers_[loc_id].push_back(key);
    return loc_id;
}

std::uint64_t
MosaicVm::hashInputFor(Asid asid, Vpn vpn)
{
    if (config_.sharing == SharingMode::PageIdHash)
        return packPageId(PageId{asid, vpn});
    const std::uint64_t loc_id = locationIdFor(asid, vpn);
    return (loc_id << 6) | pageTable(asid).offsetOf(vpn);
}

std::optional<std::uint64_t>
MosaicVm::hashInputIfBound(Asid asid, Vpn vpn)
{
    if (config_.sharing == SharingMode::PageIdHash)
        return packPageId(PageId{asid, vpn});
    MosaicPageTable &pt = pageTable(asid);
    const std::uint64_t *bound =
        locationIds_.find(TocKey{asid, pt.mvpnOf(vpn)});
    if (!bound)
        return std::nullopt;
    return (*bound << 6) | pt.offsetOf(vpn);
}

void
MosaicVm::releaseBindingIfDead(const TocKey &key)
{
    const std::uint64_t *bound = locationIds_.find(key);
    if (!bound)
        return;
    const std::uint64_t loc_id = *bound;
    MosaicPageTable &pt = pageTable(key.asid);
    const Vpn base = key.mvpn << ceilLog2(config_.arity);
    for (unsigned sub = 0; sub < config_.arity; ++sub) {
        if (pt.walk(base + sub).present ||
                swap_.contains((loc_id << 6) | sub))
            return;
    }
    // No sub-page of the ToC is resident or swapped out: the binding
    // can never be referenced again, so drop it. Without this,
    // locationIds_/locUsers_ grow without bound across map/unmap
    // cycles and the sharer-adoption scan in touch() slows down.
    if (auto *users = locUsers_.find(loc_id)) {
        std::erase(*users, key);
        if (users->empty())
            locUsers_.erase(loc_id);
    }
    locationIds_.erase(key);
}

void
MosaicVm::evictFrame(Pfn pfn)
{
    const Frame &f = frames_.frame(pfn);
    const std::uint64_t key = hashInputFor(f.owner.asid, f.owner.vpn);
    if (f.dirty) {
        swap_.writeOut(key);
        ++stats_.swapOuts;
        if (stats_.firstSwapOutUtilization < 0)
            stats_.firstSwapOutUtilization = frames_.utilization();
    }
    forEachMapping(pfn, [this](Asid asid, Vpn vpn) {
        pageTable(asid).clearCpfn(vpn);
    });
    sharers_.erase(pfn);
    if (config_.policy == EvictionPolicy::ShrunkenCache)
        globalLru_.remove(pfn);
    noteFrameFreed(pfn);
    frames_.unmap(pfn);
    // No binding release here: an evicted page always leaves a swap
    // copy behind (fresh pages are born dirty, and swap copies
    // persist after swap-in), so its ToC's binding is still live.
}

void
MosaicVm::unmapRange(Asid asid, Vpn vpn, std::size_t npages)
{
    MosaicPageTable &pt = pageTable(asid);
    const bool loc_mode = config_.sharing == SharingMode::LocationId;

    // Every ToC whose binding may die with this unmap: the caller's
    // own ToCs in range, plus every sharer of their location IDs
    // (their mappings are torn down too, whether resident or not).
    std::set<TocKey> affected;

    for (std::size_t i = 0; i < npages; ++i) {
        const Vpn v = vpn + i;
        const std::optional<std::uint64_t> key = hashInputIfBound(asid, v);
        if (!key) {
            // LocationId mode, ToC never bound: nothing was ever
            // mapped or swapped under it. Looking it up with
            // hashInputFor here would *create* the binding we are
            // trying not to leak.
            continue;
        }
        if (loc_mode) {
            if (const auto *users = locUsers_.find(*key >> 6))
                affected.insert(users->begin(), users->end());
        }
        swap_.invalidate(*key);
        const MosaicWalkResult walk = pt.walk(v);
        if (!walk.present)
            continue;
        const Pfn pfn = allocator_.mapper().pfnOf(*key, walk.cpfn);
        // Unlike eviction, releasing a range writes nothing back:
        // the contents are dead. Clear every mapping of the frame
        // (shared ToCs release for all sharers at once).
        forEachMapping(pfn, [this](Asid a, Vpn vp) {
            pageTable(a).clearCpfn(vp);
        });
        sharers_.erase(pfn);
        if (config_.policy == EvictionPolicy::ShrunkenCache)
            globalLru_.remove(pfn);
        noteFrameFreed(pfn);
        frames_.unmap(pfn);
    }

    for (const TocKey &key : affected)
        releaseBindingIfDead(key);
}

void
MosaicVm::shareRange(Asid src_asid, Vpn src_vpn, Asid dst_asid,
                     Vpn dst_vpn, std::size_t npages)
{
    ensure(config_.sharing == SharingMode::LocationId,
           "mosaic_vm: sharing requires LocationId mode");
    MosaicPageTable &src_pt = pageTable(src_asid);
    MosaicPageTable &dst_pt = pageTable(dst_asid);
    const unsigned arity = config_.arity;
    ensure(src_pt.offsetOf(src_vpn) == 0 && dst_pt.offsetOf(dst_vpn) == 0,
           "mosaic_vm: share range must be mosaic-aligned");
    ensure(npages % arity == 0,
           "mosaic_vm: share range must cover whole mosaic pages");

    for (std::size_t i = 0; i < npages; i += arity) {
        // Bind the destination ToC to the source's location ID.
        const std::uint64_t loc_id = locationIdFor(src_asid, src_vpn + i);
        const TocKey dst_key{dst_asid, dst_pt.mvpnOf(dst_vpn + i)};
        ensure(!locationIds_.contains(dst_key),
               "mosaic_vm: destination ToC already bound");
        locationIds_[dst_key] = loc_id;
        locUsers_[loc_id].push_back(dst_key);

        // Make already-resident sub-pages visible immediately.
        for (unsigned sub = 0; sub < arity; ++sub) {
            const Vpn sv = src_vpn + i + sub;
            const Vpn dv = dst_vpn + i + sub;
            const MosaicWalkResult walk = src_pt.walk(sv);
            if (walk.present) {
                dst_pt.setCpfn(dv, walk.cpfn);
                const Pfn pfn = allocator_.mapper().pfnOf(
                    hashInputFor(src_asid, sv), walk.cpfn);
                sharers_[pfn].emplace_back(dst_asid, dv);
            }
        }
    }
}

Pfn
MosaicVm::touch(Asid asid, Vpn vpn, bool write)
{
    ++clock_;
    // Walk before hashing: a resident page's CPFN names the one hash
    // output its PFN needs, so only a fault computes the full
    // candidate set. An unbound LocationId ToC has nothing mapped,
    // and binding it (which draws the RNG) is the fault path's job.
    if (const std::optional<std::uint64_t> bound =
            hashInputIfBound(asid, vpn)) {
        const MosaicWalkResult walk = pageTable(asid).walk(vpn);
        if (walk.present) {
            return touchResident(
                allocator_.mapper().pfnOf(*bound, walk.cpfn), write);
        }
        return touchAbsent(asid, vpn, write, *bound);
    }
    return touchAbsent(asid, vpn, write, hashInputFor(asid, vpn));
}

Pfn
MosaicVm::touchResident(Pfn pfn, bool write)
{
    if (frames_.frame(pfn).lastAccess < horizon_) {
        // A resident ghost was referenced again: a strict global
        // LRU would have evicted it; Horizon LRU rescues it. It
        // rejoins the live order as most recently used.
        ++stats_.ghostRescues;
        ghosts_.rescue(pfn);
    } else {
        ghosts_.touchLive(pfn);
    }
    frames_.touch(pfn, clock_, write);
    if (config_.policy == EvictionPolicy::ShrunkenCache)
        globalLru_.touch(pfn);
    return pfn;
}

Pfn
MosaicVm::touchAbsent(Asid asid, Vpn vpn, bool write,
                      std::uint64_t hash_input)
{
    // Page fault. Every path below changes a page->frame mapping, so
    // batch walks gathered before this op are no longer current.
    MosaicPageTable &pt = pageTable(asid);
    const bool major = swap_.contains(hash_input);

    if (config_.sharing == SharingMode::LocationId) {
        // Another mapping of the same ToC may already have the page
        // resident: adopt its frame instead of allocating.
        const std::uint64_t loc_id = locationIdFor(asid, vpn);
        const unsigned offset = pt.offsetOf(vpn);
        for (const TocKey &user : locUsers_[loc_id]) {
            if (user.asid == asid && user.mvpn == pt.mvpnOf(vpn))
                continue;
            MosaicPageTable &peer_pt = pageTable(user.asid);
            const Vpn peer_vpn =
                (user.mvpn << ceilLog2(config_.arity)) | offset;
            const MosaicWalkResult peer = peer_pt.walk(peer_vpn);
            if (peer.present) {
                // The peer's ToC shares this location ID, so its CPFN
                // decodes against the same hash input. Adopting a
                // ghost frame rescues it exactly like a direct hit.
                const Pfn pfn =
                    allocator_.mapper().pfnOf(hash_input, peer.cpfn);
                pt.setCpfn(vpn, peer.cpfn);
                sharers_[pfn].emplace_back(asid, vpn);
                touchResident(pfn, write);
                ++stats_.minorFaults;
                return pfn;
            }
        }
    }

    const CandidateSet cand = allocator_.mapper().candidates(hash_input);

    // ShrunkenCache holds live pages below (1 - delta)p by evicting
    // the global LRU page first, so placement usually finds room.
    if (config_.policy == EvictionPolicy::ShrunkenCache &&
            frames_.usedFrames() >= liveCap_ && !globalLru_.empty()) {
        evictFrame(globalLru_.front());
    }

    std::optional<Placement> placement;
    const bool place_injected = config_.faults != nullptr &&
                                config_.faults->shouldFail("vm.place");
    if (!place_injected)
        placement = allocator_.place(cand, frames_, ghosts_.bits());

    if (!placement &&
            config_.recovery == ConflictRecovery::GhostReclaimRetry) {
        // Recovery hook: reclaim anything the horizon has already
        // ghosted and retry before escalating to a hard conflict.
        // Placement is a pure function of frames_ and horizon_, so
        // the retry succeeds only when the first attempt failed
        // transiently (fault injection) — never on a real conflict.
        reapGhosts();
        placement = allocator_.place(cand, frames_, ghosts_.bits());
        if (placement)
            ++stats_.recoveredConflicts;
    }

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
    ghosts_.recordLive(placement->pfn);
    if (config_.policy == EvictionPolicy::ShrunkenCache)
        globalLru_.pushBack(placement->pfn);
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

void
MosaicVm::touchBatch(std::span<const PageTouch> block, Pfn *out)
{
    // LocationId hash inputs are derived statefully (binding creation
    // draws the RNG), so staging them out of order would change
    // observable state; trivial blocks have nothing to amortize.
    if (config_.sharing == SharingMode::LocationId || block.size() < 2) {
        for (std::size_t i = 0; i < block.size(); ++i)
            out[i] = touch(block[i].asid, block[i].vpn, block[i].write);
        return;
    }

    // Ops walked ahead of the apply point, and leaves prefetched
    // ahead of the walk: each stage's lines land before the next
    // stage reads them.
    constexpr std::size_t walkAhead = 8;
    constexpr std::size_t leafAhead = 8;
    const std::size_t n = block.size();
    const MosaicMapper &mapper = allocator_.mapper();

    // Walk results of the ops in flight (at most walkAhead + 1),
    // slotted by op index: the resident page's PFN, or invalidPfn.
    std::array<Pfn, walkAhead + 1> walks;
    const auto walk_of = [&](std::size_t j) -> Pfn & {
        return walks[j % walks.size()];
    };

    // Page tables are read with find(), not pageTable(): the walks
    // must not create address spaces, and a missing table just means
    // "absent". Tables are never destroyed, so the last one found
    // stays valid for the whole block.
    Asid last_asid = 0;
    const MosaicPageTable *last_table = nullptr;
    const auto table_of = [&](Asid asid) -> const MosaicPageTable * {
        if (last_table && last_asid == asid)
            return last_table;
        const auto *table = tables_.find(asid);
        if (!table)
            return nullptr;
        last_asid = asid;
        last_table = table->get();
        return last_table;
    };

    // Walk op j; a resident page's frame record and live-order node
    // are prefetched for its apply.
    const auto walk_op = [&](std::size_t j) {
        if (j + leafAhead < n) {
            const PageTouch &ahead = block[j + leafAhead];
            if (const MosaicPageTable *table = table_of(ahead.asid))
                table->prefetch(ahead.vpn);
        }
        const PageTouch &t = block[j];
        walk_of(j) = invalidPfn;
        const MosaicPageTable *table = table_of(t.asid);
        if (!table)
            return;
        const MosaicWalkResult walk = table->walk(t.vpn);
        if (!walk.present)
            return;
        const Pfn pfn =
            mapper.pfnOf(packPageId(PageId{t.asid, t.vpn}), walk.cpfn);
        walk_of(j) = pfn;
        frames_.prefetchRange(pfn, 1);
        ghosts_.prefetch(pfn);
        if (config_.policy == EvictionPolicy::ShrunkenCache)
            globalLru_.prefetch(pfn);
    };

    // Apply in the caller's order — the determinism contract. A walk
    // is current until the next mapping mutation, and only a fault
    // mutates: it discards every walk gathered past it, and those ops
    // are walked again (a fault may have mapped or evicted them).
    std::size_t walked = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (const std::size_t end = std::min(n, i + 1 + walkAhead);
             walked < end; ++walked)
            walk_op(walked);
        const PageTouch &t = block[i];
        ++clock_;
        if (const Pfn pfn = walk_of(i); pfn != invalidPfn) {
            out[i] = touchResident(pfn, t.write);
        } else {
            out[i] = touchAbsent(t.asid, t.vpn, t.write,
                                 packPageId(PageId{t.asid, t.vpn}));
            walked = i + 1;
        }
    }
}

} // namespace mosaic
