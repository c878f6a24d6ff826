#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mem/geometry.hh"
#include "oracle/fuzz_internal.hh"
#include "oracle/oracle_vm.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "util/log.hh"
#include "workloads/access_sink.hh"
#include "workloads/kv_server.hh"
#include "workloads/scan_analytics.hh"
#include "workloads/warp.hh"
#include "workloads/web_session.hh"

namespace mosaic::fuzz
{

namespace
{

// --------------------------------------------------------- vm harness

/** Trace -> LinuxVmConfig. Shared by the harness and the batched
 *  pipeline shadow so both paths build identical instances. */
LinuxVmConfig
linuxVmCfgFromTrace(const Trace &t)
{
    LinuxVmConfig cfg;
    cfg.numFrames = t.cfgUint("frames", 128);
    cfg.watermarkFraction =
        static_cast<double>(t.cfgUint("watermark_ppm", 8000)) / 1e6;
    cfg.reclaimBatch = static_cast<unsigned>(t.cfgUint("batch", 32));
    return cfg;
}

} // namespace

/** Trace -> MosaicVmConfig (see linuxVmCfgFromTrace). */
MosaicVmConfig
mosaicVmCfgFromTrace(const Trace &t)
{
    MosaicVmConfig cfg;
    cfg.geometry.frontSlots =
        static_cast<unsigned>(t.cfgUint("front", 6));
    cfg.geometry.backSlots =
        static_cast<unsigned>(t.cfgUint("back", 2));
    cfg.geometry.backChoices =
        static_cast<unsigned>(t.cfgUint("d", 2));
    cfg.geometry.numFrames = t.cfgUint("buckets", 4) *
        cfg.geometry.slotsPerBucket();
    cfg.geometry.hashSeed = t.cfgUint("hashseed", 1);
    cfg.arity = static_cast<unsigned>(t.cfgUint("arity", 4));
    cfg.shrinkDelta =
        static_cast<double>(t.cfgUint("shrink_ppm", 20000)) / 1e6;
    const std::string policy = t.cfgValue("policy", "horizon");
    if (policy == "horizon")
        cfg.policy = EvictionPolicy::HorizonLru;
    else if (policy == "local")
        cfg.policy = EvictionPolicy::LocalLru;
    else
        cfg.policy = EvictionPolicy::ShrunkenCache;
    return cfg;
}

namespace
{

class VmHarness
{
  public:
    explicit VmHarness(const Trace &t)
        : kind_(t.cfgValue("kind", "mosaic")),
          deep_(t.cfgUint("deep", 512))
    {
        if (kind_ == "linux") {
            const LinuxVmConfig cfg = linuxVmCfgFromTrace(t);
            lvm_ = std::make_unique<LinuxVm>(cfg);
            OracleVmConfig ocfg;
            ocfg.numFrames = cfg.numFrames;
            ocfg.watermarkFraction = cfg.watermarkFraction;
            ocfg.reclaimBatch = cfg.reclaimBatch;
            lOracle_ = std::make_unique<OracleVm>(ocfg);
            return;
        }
        ensure(kind_ == "mosaic", "fuzzer: unknown vm kind");
        const MosaicVmConfig cfg = mosaicVmCfgFromTrace(t);
        policy_ = cfg.policy;
        mvm_ = std::make_unique<MosaicVm>(cfg);
        numFrames_ = cfg.geometry.numFrames;
        usedPre_.resize(numFrames_);
        dirtyPre_.resize(numFrames_);
        lastAccessPre_.resize(numFrames_);
        if (policy_ == EvictionPolicy::HorizonLru)
            recency_ = std::make_unique<OracleVm>(OracleVmConfig{0});
    }

    MaybeDivergence
    apply(const TraceOp &op, std::size_t idx, bool *applied, Digest &dg)
    {
        *applied = true;
        if (kind_ == "linux")
            return applyLinux(op, idx, applied, dg);
        return applyMosaic(op, idx, applied, dg);
    }

  private:
    // ------------------------------------------------------- linux

    MaybeDivergence
    applyLinux(const TraceOp &op, std::size_t idx, bool *applied,
               Digest &dg)
    {
        if (!reserveChecked_) {
            reserveChecked_ = true;
            if (lvm_->reserveFrames() != lOracle_->reserveFrames()) {
                return diverge(idx, "linux watermark reserve: real=" +
                    std::to_string(lvm_->reserveFrames()) + " oracle=" +
                    std::to_string(lOracle_->reserveFrames()));
            }
        }
        const Asid asid = static_cast<Asid>(op.arg(0));
        const Vpn vpn = op.arg(1);
        switch (op.kind) {
        case 't': {
            const bool write = op.arg(2) != 0;
            const PageId id{asid, vpn};
            const bool present = lvm_->pageTable(asid).walk(vpn).present;
            const OracleVm::Outcome o = lOracle_->touch(asid, vpn, write);
            const Pfn pfn = lvm_->touch(asid, vpn, write);
            dg.mix('t');
            dg.mix(pfn);
            if (o.fault != !present) {
                return diverge(idx, "linux touch " + pageStr(asid, vpn) +
                    ": oracle fault disposition disagrees with the "
                    "real page table");
            }
            const Frame &f = lvm_->frameTable().frame(pfn);
            if (!f.used || !(f.owner == id)) {
                return diverge(idx, "linux touch " + pageStr(asid, vpn) +
                    ": returned frame not owned by the page");
            }
            if (f.dirty != lOracle_->isDirty(id)) {
                return diverge(idx, "linux touch " + pageStr(asid, vpn) +
                    ": dirty bit disagrees with oracle");
            }
            if (f.lastAccess != lOracle_->lastAccessOf(id)) {
                return diverge(idx, "linux touch " + pageStr(asid, vpn) +
                    ": access tick disagrees with oracle");
            }
            break;
        }
        case 'u': {
            const std::size_t n = op.arg(2);
            lOracle_->unmapRange(asid, vpn, n);
            lvm_->unmapRange(asid, vpn, n);
            dg.mix('u');
            for (std::size_t i = 0; i < n; ++i) {
                if (lvm_->pageTable(asid).walk(vpn + i).present) {
                    return diverge(idx, "linux unmap left " +
                        pageStr(asid, vpn + i) + " mapped");
                }
            }
            break;
        }
        default:
            *applied = false;
            return std::nullopt;
        }

        const VmStats &r = lvm_->stats();
        const VmStats &o = lOracle_->stats();
        if (r.minorFaults != o.minorFaults ||
                r.majorFaults != o.majorFaults ||
                r.swapIns != o.swapIns || r.swapOuts != o.swapOuts) {
            return diverge(idx,
                "linux stats counter disagrees with oracle (minor " +
                std::to_string(r.minorFaults) + "/" +
                std::to_string(o.minorFaults) + ", major " +
                std::to_string(r.majorFaults) + "/" +
                std::to_string(o.majorFaults) + ", in " +
                std::to_string(r.swapIns) + "/" +
                std::to_string(o.swapIns) + ", out " +
                std::to_string(r.swapOuts) + "/" +
                std::to_string(o.swapOuts) + ")");
        }
        if (lvm_->residentPages() != lOracle_->resident()) {
            return diverge(idx, "linux resident pages: real=" +
                std::to_string(lvm_->residentPages()) + " oracle=" +
                std::to_string(lOracle_->resident()));
        }
        if (lvm_->swapDevice().pagesStored() != lOracle_->swapStored()) {
            return diverge(idx, "linux swap population: real=" +
                std::to_string(lvm_->swapDevice().pagesStored()) +
                " oracle=" + std::to_string(lOracle_->swapStored()));
        }
        if (deep_ > 0 && (idx + 1) % deep_ == 0)
            return deepCheckLinux(idx);
        return std::nullopt;
    }

    MaybeDivergence
    deepCheckLinux(std::size_t idx)
    {
        // Resident counts already match, so per-page membership of the
        // oracle's resident set proves the sets are equal.
        for (const PageId &id : lOracle_->residentByRecency()) {
            const VanillaWalkResult walk =
                lvm_->pageTable(id.asid).walk(id.vpn);
            if (!walk.present) {
                return diverge(idx, "linux deep: oracle-resident page " +
                    pageStr(id.asid, id.vpn) + " not mapped");
            }
            const Frame &f = lvm_->frameTable().frame(walk.pfn);
            if (!(f.owner == id)) {
                return diverge(idx, "linux deep: frame owner mismatch "
                    "for " + pageStr(id.asid, id.vpn));
            }
        }
        return std::nullopt;
    }

    // ------------------------------------------------------ mosaic

    void
    snapshotPre()
    {
        const FrameTable &ft = mvm_->frameTable();
        for (Pfn p = 0; p < numFrames_; ++p) {
            const Frame &f = ft.frame(p);
            usedPre_[p] = f.used;
            dirtyPre_[p] = f.dirty;
            lastAccessPre_[p] = f.lastAccess;
        }
        horizonPre_ = mvm_->horizon();
        statsPre_ = mvm_->stats();
        residentPre_ = mvm_->residentPages();
        ghostPre_ = mvm_->ghostPages();
    }

    bool
    wasGhostPre(Pfn pfn) const
    {
        return usedPre_[pfn] && lastAccessPre_[pfn] < horizonPre_;
    }

    /** Walk one page of the real mosaic page tables. */
    bool
    walkPresent(Asid asid, Vpn vpn)
    {
        return mvm_->pageTable(asid).walk(vpn).present;
    }

    MaybeDivergence
    applyMosaic(const TraceOp &op, std::size_t idx, bool *applied,
                Digest &dg)
    {
        MaybeDivergence bad;
        switch (op.kind) {
        case 't':
            bad = mosaicTouch(op, idx, dg);
            break;
        case 'u':
            bad = mosaicUnmap(op, idx, dg);
            break;
        default:
            *applied = false;
            return std::nullopt;
        }
        if (bad)
            return bad;
        if (policy_ != EvictionPolicy::HorizonLru &&
                mvm_->ghostPages() != 0) {
            return diverge(idx, "mosaic: ghost pages under a policy "
                "that never raises the horizon");
        }
        if (deep_ > 0 && (idx + 1) % deep_ == 0)
            return deepCheckMosaic(idx);
        return std::nullopt;
    }

    MaybeDivergence
    mosaicTouch(const TraceOp &op, std::size_t idx, Digest &dg)
    {
        const Asid asid = static_cast<Asid>(op.arg(0));
        const Vpn vpn = op.arg(1);
        const bool write = op.arg(2) != 0;
        snapshotPre();
        const bool present = walkPresent(asid, vpn);

        // Re-derive the exact placement decision from the public
        // allocator before the touch mutates anything.
        bool predicted = false;
        bool predMajor = false;
        Pfn predPfn = invalidPfn;
        std::uint64_t predConflicts = 0, predGhostEvicts = 0,
                      predSwapOuts = 0;
        Tick predHorizon = horizonPre_;
        std::int64_t predGhostDelta = 0, predResidentDelta = 0;
        std::optional<PageId> predVictim;
        if (!present && policy_ != EvictionPolicy::ShrunkenCache) {
            predicted = true;
            const std::uint64_t hin = packPageId(PageId{asid, vpn});
            predMajor = mvm_->swapDevice().contains(hin);
            const MosaicAllocator &alloc = mvm_->allocator();
            const FrameTable &ft = mvm_->frameTable();
            const CandidateSet cand = alloc.mapper().candidates(hin);
            const Tick h0 = horizonPre_;
            const auto is_ghost = [h0](const Frame &f) {
                return f.lastAccess < h0;
            };
            const std::optional<Placement> pl =
                alloc.place(cand, ft, is_ghost);
            if (!pl) {
                predConflicts = 1;
                const Placement victim = alloc.lruCandidate(cand, ft);
                const Frame &vf = ft.frame(victim.pfn);
                predPfn = victim.pfn;
                predVictim = vf.owner;
                predSwapOuts = vf.dirty ? 1 : 0;
                if (policy_ == EvictionPolicy::HorizonLru) {
                    predHorizon = std::max(h0, vf.lastAccess);
                    for (Pfn p = 0; p < numFrames_; ++p) {
                        if (p != victim.pfn && usedPre_[p] &&
                                lastAccessPre_[p] >= h0 &&
                                lastAccessPre_[p] < predHorizon)
                            ++predGhostDelta;
                    }
                }
            } else if (pl->evictsGhost) {
                const Frame &gf = ft.frame(pl->pfn);
                predPfn = pl->pfn;
                predVictim = gf.owner;
                predGhostEvicts = 1;
                predSwapOuts = gf.dirty ? 1 : 0;
                predGhostDelta = -1;
            } else {
                predPfn = pl->pfn;
                predResidentDelta = 1;
            }
        }

        const Pfn pfn = mvm_->touch(asid, vpn, write);
        dg.mix('t');
        dg.mix(pfn);
        if (recency_)
            recency_->touch(asid, vpn, write);

        const VmStats &s = mvm_->stats();
        const auto delta = [&](std::uint64_t now, std::uint64_t pre) {
            return static_cast<std::int64_t>(now - pre);
        };
        const std::int64_t dMinor = delta(s.minorFaults,
                                          statsPre_.minorFaults);
        const std::int64_t dMajor = delta(s.majorFaults,
                                          statsPre_.majorFaults);
        const std::int64_t dSwapIns = delta(s.swapIns, statsPre_.swapIns);
        const std::int64_t dSwapOuts = delta(s.swapOuts,
                                             statsPre_.swapOuts);
        const std::int64_t dConflicts = delta(s.conflicts,
                                              statsPre_.conflicts);
        const std::int64_t dGhostEvicts = delta(s.ghostEvictions,
                                                statsPre_.ghostEvictions);
        const std::int64_t dRescues = delta(s.ghostRescues,
                                            statsPre_.ghostRescues);
        const std::int64_t dGhosts =
            static_cast<std::int64_t>(mvm_->ghostPages()) -
            static_cast<std::int64_t>(ghostPre_);
        const std::int64_t dResident =
            static_cast<std::int64_t>(mvm_->residentPages()) -
            static_cast<std::int64_t>(residentPre_);

        const Frame &f = mvm_->frameTable().frame(pfn);
        if (!f.used || f.lastAccess != mvm_->now()) {
            return diverge(idx, "mosaic touch " + pageStr(asid, vpn) +
                ": frame not stamped with the current tick");
        }
        if (!walkPresent(asid, vpn)) {
            return diverge(idx, "mosaic touch " + pageStr(asid, vpn) +
                ": page not mapped after touch");
        }
        if (mvm_->horizon() < horizonPre_) {
            return diverge(idx, "mosaic horizon moved backwards");
        }

        if (present) {
            // Hit: no allocation happened, so ghost count may only
            // move by rescuing this very frame.
            const bool wasGhost = wasGhostPre(pfn);
            const std::int64_t expRescue = wasGhost ? 1 : 0;
            if (dConflicts != 0 || dGhostEvicts != 0 || dSwapOuts != 0 ||
                    dSwapIns != 0 || dMajor != 0 || dResident != 0) {
                return diverge(idx, "mosaic hit of " +
                    pageStr(asid, vpn) + " changed allocation counters");
            }
            if (dMinor != 0) {
                return diverge(idx, "mosaic hit of " +
                    pageStr(asid, vpn) + ": unexpected minor faults");
            }
            if (mvm_->horizon() != horizonPre_) {
                return diverge(idx, "mosaic hit raised the horizon");
            }
            if (dGhosts != -expRescue || dRescues != expRescue) {
                return diverge(idx, "mosaic hit of " +
                    pageStr(asid, vpn) + (wasGhost
                        ? " on a ghost frame: ghostPages moved by " +
                          std::to_string(dGhosts) + " but ghostRescues "
                          "moved by " + std::to_string(dRescues)
                        : " on a live frame changed ghost accounting"));
            }
            const bool expDirty = dirtyPre_[pfn] || write;
            if (f.dirty != expDirty) {
                return diverge(idx, "mosaic hit dirty bit mismatch");
            }
            return std::nullopt;
        }

        // Allocation path.
        if (dMinor + dMajor != 1 || dSwapIns != dMajor ||
                (dMajor != 0) != (dSwapIns != 0)) {
            return diverge(idx, "mosaic fault on " + pageStr(asid, vpn) +
                ": fault counters moved by minor=" +
                std::to_string(dMinor) + " major=" +
                std::to_string(dMajor) + " swapIns=" +
                std::to_string(dSwapIns));
        }
        const bool major = dMajor == 1;
        if (!(f.owner == PageId{asid, vpn})) {
            return diverge(idx, "mosaic fault: frame owner is not the "
                "faulted page " + pageStr(asid, vpn));
        }
        if (f.dirty != (!major || write)) {
            return diverge(idx, "mosaic fault: dirty-at-birth rule "
                "violated for " + pageStr(asid, vpn));
        }
        if (predicted) {
            if (major != predMajor) {
                return diverge(idx, "mosaic fault kind: swap device " +
                    std::string(predMajor ? "holds" : "lacks") +
                    " the page but the fault was " +
                    (major ? "major" : "minor"));
            }
            if (pfn != predPfn) {
                return diverge(idx, "mosaic placement: touch used frame " +
                    std::to_string(pfn) + ", allocator rule says " +
                    std::to_string(predPfn));
            }
            if (dConflicts != static_cast<std::int64_t>(predConflicts) ||
                    dGhostEvicts !=
                        static_cast<std::int64_t>(predGhostEvicts) ||
                    dSwapOuts != static_cast<std::int64_t>(predSwapOuts)) {
                return diverge(idx, "mosaic eviction counters deviate "
                    "from the placement rule (conflicts " +
                    std::to_string(dConflicts) + "/" +
                    std::to_string(predConflicts) + ", ghostEvictions " +
                    std::to_string(dGhostEvicts) + "/" +
                    std::to_string(predGhostEvicts) + ", swapOuts " +
                    std::to_string(dSwapOuts) + "/" +
                    std::to_string(predSwapOuts) + ")");
            }
            if (mvm_->horizon() != predHorizon) {
                return diverge(idx, "mosaic horizon: real=" +
                    std::to_string(mvm_->horizon()) + " predicted=" +
                    std::to_string(predHorizon));
            }
            if (dGhosts != predGhostDelta) {
                return diverge(idx, "mosaic ghost count moved by " +
                    std::to_string(dGhosts) + ", predicted " +
                    std::to_string(predGhostDelta));
            }
            if (dResident != predResidentDelta) {
                return diverge(idx, "mosaic resident count moved by " +
                    std::to_string(dResident) + ", predicted " +
                    std::to_string(predResidentDelta));
            }
            if (predVictim &&
                    walkPresent(predVictim->asid, predVictim->vpn)) {
                return diverge(idx, "mosaic victim " +
                    pageStr(predVictim->asid, predVictim->vpn) +
                    " still mapped after its eviction");
            }
        } else {
            // ShrunkenCache may pre-evict the global-LRU frame and
            // then still hit a conflict, freeing two frames while
            // mapping one.
            const std::int64_t lo =
                policy_ == EvictionPolicy::ShrunkenCache ? -1 : 0;
            if (dResident < lo || dResident > 1) {
                return diverge(idx, "mosaic fault moved resident count "
                    "by " + std::to_string(dResident));
            }
        }
        return std::nullopt;
    }

    MaybeDivergence
    mosaicUnmap(const TraceOp &op, std::size_t idx, Digest &dg)
    {
        const Asid asid = static_cast<Asid>(op.arg(0));
        const Vpn vpn = op.arg(1);
        const std::size_t n = op.arg(2);
        snapshotPre();

        // The exact set of frames and swap copies the unmap must
        // release is knowable up front.
        std::int64_t predFreed = 0, predGhostsFreed = 0, predSwapDrop = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t hin = packPageId(PageId{asid, vpn + i});
            if (mvm_->swapDevice().contains(hin))
                ++predSwapDrop;
            const MosaicWalkResult walk =
                mvm_->pageTable(asid).walk(vpn + i);
            if (walk.present) {
                ++predFreed;
                const Pfn pfn = mvm_->allocator().mapper().toPfn(
                    mvm_->allocator().mapper().candidates(hin),
                    walk.cpfn);
                if (wasGhostPre(pfn))
                    ++predGhostsFreed;
            }
        }

        const std::size_t swapPre = mvm_->swapDevice().pagesStored();
        mvm_->unmapRange(asid, vpn, n);
        dg.mix('u');
        dg.mix(asid);
        dg.mix(vpn);
        dg.mix(n);
        if (recency_)
            recency_->unmapRange(asid, vpn, n);

        for (std::size_t i = 0; i < n; ++i) {
            if (walkPresent(asid, vpn + i)) {
                return diverge(idx, "mosaic unmap left " +
                    pageStr(asid, vpn + i) + " mapped");
            }
        }
        const VmStats &s = mvm_->stats();
        if (s.minorFaults != statsPre_.minorFaults ||
                s.majorFaults != statsPre_.majorFaults ||
                s.swapOuts != statsPre_.swapOuts ||
                s.conflicts != statsPre_.conflicts) {
            return diverge(idx, "mosaic unmap changed fault/eviction "
                "counters");
        }
        if (mvm_->horizon() != horizonPre_) {
            return diverge(idx, "mosaic unmap moved the horizon");
        }
        const std::int64_t dResident =
            static_cast<std::int64_t>(mvm_->residentPages()) -
            static_cast<std::int64_t>(residentPre_);
        const std::int64_t dGhosts =
            static_cast<std::int64_t>(mvm_->ghostPages()) -
            static_cast<std::int64_t>(ghostPre_);
        const std::int64_t dSwap =
            static_cast<std::int64_t>(mvm_->swapDevice().pagesStored()) -
            static_cast<std::int64_t>(swapPre);
        if (dResident != -predFreed) {
            return diverge(idx, "mosaic unmap freed " +
                std::to_string(-dResident) + " frames, expected " +
                std::to_string(predFreed));
        }
        if (dGhosts != -predGhostsFreed) {
            return diverge(idx, "mosaic unmap ghost accounting: moved " +
                std::to_string(dGhosts) + ", expected " +
                std::to_string(-predGhostsFreed));
        }
        if (dSwap != -predSwapDrop) {
            return diverge(idx, "mosaic unmap dropped " +
                std::to_string(-dSwap) + " swap copies, expected " +
                std::to_string(predSwapDrop));
        }
        return std::nullopt;
    }

    MaybeDivergence
    deepCheckMosaic(std::size_t idx)
    {
        const FrameTable &ft = mvm_->frameTable();
        std::size_t used = 0, ghosts = 0;
        std::vector<PageId> live;
        for (Pfn p = 0; p < numFrames_; ++p) {
            const Frame &f = ft.frame(p);
            if (!f.used)
                continue;
            ++used;
            if (mvm_->isGhostFrame(p))
                ++ghosts;
            else
                live.push_back(f.owner);
            // CPFN round trip: the owner's page-table entry must
            // decode back to exactly this frame.
            const MosaicWalkResult walk =
                mvm_->pageTable(f.owner.asid).walk(f.owner.vpn);
            if (!walk.present) {
                return diverge(idx, "mosaic deep: owner of frame " +
                    std::to_string(p) + " not mapped");
            }
            const CandidateSet cand =
                mvm_->allocator().mapper().candidates(packPageId(f.owner));
            if (mvm_->allocator().mapper().toPfn(cand, walk.cpfn) != p ||
                    mvm_->allocator().mapper().toCpfn(cand, p) !=
                        walk.cpfn) {
                return diverge(idx, "mosaic deep: CPFN round trip "
                    "failed for frame " + std::to_string(p));
            }
        }
        if (used != mvm_->residentPages()) {
            return diverge(idx, "mosaic deep: frame scan counts " +
                std::to_string(used) + " used frames, residentPages() "
                "says " + std::to_string(mvm_->residentPages()));
        }
        if (ghosts != mvm_->ghostPages()) {
            return diverge(idx, "mosaic deep: frame scan counts " +
                std::to_string(ghosts) + " ghosts, ghostPages() says " +
                std::to_string(mvm_->ghostPages()));
        }
        if (recency_) {
            // Horizon LRU == global LRU (paper §2.4): the live pages
            // must be exactly the top-L of the exact global recency
            // order, L = live count.
            const std::vector<PageId> order =
                recency_->residentByRecency();
            if (order.size() < live.size()) {
                return diverge(idx, "mosaic deep: recency oracle holds "
                    "fewer pages than are live");
            }
            std::vector<PageId> top(order.begin(),
                                    order.begin() +
                                        static_cast<std::ptrdiff_t>(
                                            live.size()));
            std::sort(top.begin(), top.end());
            std::sort(live.begin(), live.end());
            if (top != live) {
                return diverge(idx, "mosaic deep: live set is not the "
                    "top-" + std::to_string(live.size()) +
                    " of the global LRU order");
            }
        }
        return std::nullopt;
    }

    std::string kind_;
    std::uint64_t deep_;

    // linux
    std::unique_ptr<LinuxVm> lvm_;
    std::unique_ptr<OracleVm> lOracle_;
    bool reserveChecked_ = false;

    // mosaic
    std::unique_ptr<MosaicVm> mvm_;
    EvictionPolicy policy_ = EvictionPolicy::HorizonLru;
    std::size_t numFrames_ = 0;
    std::vector<std::uint8_t> usedPre_;
    std::vector<std::uint8_t> dirtyPre_;
    std::vector<Tick> lastAccessPre_;
    Tick horizonPre_ = 0;
    VmStats statsPre_;
    std::size_t residentPre_ = 0;
    std::size_t ghostPre_ = 0;

    // HorizonLru: unbounded recency oracle.
    std::unique_ptr<OracleVm> recency_;
};

// ------------------------------------- batched pipeline shadows

/** Flattened observable VM state for exact scalar/batched
 *  comparison: every stats metric plus residency and (for mosaic)
 *  ghost/horizon/clock state. */
std::vector<std::pair<std::string, double>>
vmStateVector(const VirtualMemory &vm, bool is_mosaic)
{
    std::vector<std::pair<std::string, double>> out;
    vm.stats().forEachMetric([&](const char *name,
                                 const auto &value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, RunningStat>) {
            const std::string base = name;
            out.emplace_back(base + ".count",
                             static_cast<double>(value.count()));
            out.emplace_back(base + ".mean", value.mean());
        } else {
            out.emplace_back(name, static_cast<double>(value));
        }
    });
    out.emplace_back("residentPages",
                     static_cast<double>(vm.residentPages()));
    if (is_mosaic) {
        const auto &mvm = static_cast<const MosaicVm &>(vm);
        out.emplace_back("ghostPages",
                         static_cast<double>(mvm.ghostPages()));
        out.emplace_back("horizon",
                         static_cast<double>(mvm.horizon()));
        out.emplace_back("now", static_cast<double>(mvm.now()));
    }
    return out;
}

/**
 * Lockstep shadow for the batched VM pipeline (DESIGN.md §13): every
 * applied vm-trace op is replayed into a scalar-driven VM and a
 * touchBatch-driven VM, both built from the same trace config.
 * Touches buffer into blocks of @p batch, clamped to [2, maxBlock];
 * any non-touch mutation and the end of the trace flush the
 * pipeline. At every flush boundary the per-touch PFNs and the full
 * observable state must match exactly — the primary harness (and
 * therefore the digest) is untouched, so batched runs reproduce
 * scalar goldens by construction.
 */
class VmBatchShadow
{
  public:
    /** Upper bound on the block (keeps the scratch bounded). */
    static constexpr std::uint64_t maxBlock = 4096;

    VmBatchShadow(const Trace &t, std::uint64_t batch)
        : batch_(std::clamp<std::uint64_t>(batch, 2, maxBlock)),
          linux_(t.cfgValue("kind", "mosaic") == "linux")
    {
        if (linux_) {
            scalarVm_ = std::make_unique<LinuxVm>(linuxVmCfgFromTrace(t));
            batchVm_ = std::make_unique<LinuxVm>(linuxVmCfgFromTrace(t));
        } else {
            scalarVm_ = std::make_unique<MosaicVm>(mosaicVmCfgFromTrace(t));
            batchVm_ = std::make_unique<MosaicVm>(mosaicVmCfgFromTrace(t));
        }
        pending_.reserve(batch_);
        expected_.reserve(batch_);
        got_.resize(batch_);
    }

    /** Mirror one applied op; non-vm op kinds are ignored. */
    MaybeDivergence
    mirror(const TraceOp &op, std::size_t idx)
    {
        const Asid asid = static_cast<Asid>(op.arg(0));
        const Vpn vpn = op.arg(1);
        switch (op.kind) {
        case 't': {
            const bool write = op.arg(2) != 0;
            pending_.push_back(PageTouch{asid, vpn, write});
            expected_.push_back(scalarVm_->touch(asid, vpn, write));
            if (pending_.size() >= batch_)
                return drain(idx);
            return std::nullopt;
        }
        case 'u': {
            if (MaybeDivergence bad = drain(idx))
                return bad;
            const std::size_t n = op.arg(2);
            if (linux_) {
                static_cast<LinuxVm &>(*scalarVm_)
                    .unmapRange(asid, vpn, n);
                static_cast<LinuxVm &>(*batchVm_)
                    .unmapRange(asid, vpn, n);
            } else {
                static_cast<MosaicVm &>(*scalarVm_)
                    .unmapRange(asid, vpn, n);
                static_cast<MosaicVm &>(*batchVm_)
                    .unmapRange(asid, vpn, n);
            }
            return compare(idx);
        }
        default:
            return std::nullopt;
        }
    }

    /** Flush the tail block. */
    MaybeDivergence finish(std::size_t idx) { return drain(idx); }

  private:
    MaybeDivergence
    drain(std::size_t idx)
    {
        if (pending_.empty())
            return std::nullopt;
        batchVm_->touchBatch(pending_, got_.data());
        for (std::size_t k = 0; k < pending_.size(); ++k) {
            if (got_[k] != expected_[k]) {
                return diverge(idx, "batched pipeline: touch " +
                    pageStr(pending_[k].asid, pending_[k].vpn) +
                    " returned pfn " + std::to_string(got_[k]) +
                    ", scalar returned " +
                    std::to_string(expected_[k]));
            }
        }
        pending_.clear();
        expected_.clear();
        return compare(idx);
    }

    MaybeDivergence
    compare(std::size_t idx)
    {
        const auto want = vmStateVector(*scalarVm_, !linux_);
        const auto got = vmStateVector(*batchVm_, !linux_);
        for (std::size_t k = 0; k < want.size() && k < got.size();
             ++k) {
            if (want[k] != got[k]) {
                return diverge(idx, "batched pipeline: vm metric " +
                    want[k].first + ": scalar=" +
                    std::to_string(want[k].second) + " batched=" +
                    std::to_string(got[k].second));
            }
        }
        if (want.size() != got.size()) {
            return diverge(idx,
                "batched pipeline: vm metric sets differ");
        }
        return std::nullopt;
    }

    std::size_t batch_;
    bool linux_;
    std::unique_ptr<VirtualMemory> scalarVm_;
    std::unique_ptr<VirtualMemory> batchVm_;
    std::vector<PageTouch> pending_;
    std::vector<Pfn> expected_;
    std::vector<Pfn> got_;
};

} // namespace

void
runVmTrace(const Trace &trace, std::uint64_t batch, Digest &dg,
           FuzzResult &res)
{
    VmHarness h(trace);
    std::unique_ptr<VmBatchShadow> shadow;
    if (batch > 1)
        shadow = std::make_unique<VmBatchShadow>(trace, batch);
    drive(trace, h, dg, res, shadow.get());
}

Trace
generateLinuxVm(Rng &rng, std::size_t numOps)
{
    Trace t;
    t.component = "vm";
    t.setCfg("kind", "linux");
    const std::uint64_t frames = 96 + rng.below(160);
    t.setCfgUint("frames", frames);
    t.setCfgUint("watermark_ppm",
                 rng.chance(0.5) ? 8000 : 1000 + rng.below(30000));
    static constexpr unsigned batches[] = {1, 8, 32};
    t.setCfgUint("batch", batches[rng.below(3)]);
    t.setCfgUint("deep", 512);
    const std::uint64_t numAsids = 1 + rng.below(3);
    const std::uint64_t universe = frames * (120 + rng.below(200)) / 100;
    for (std::size_t i = 0; i < numOps; ++i) {
        TraceOp op;
        const Asid asid = static_cast<Asid>(1 + rng.below(numAsids));
        if (rng.chance(0.85)) {
            op.kind = 't';
            op.nargs = 3;
            op.args[0] = asid;
            op.args[1] = rng.chance(0.5)
                ? rng.below(std::max<std::uint64_t>(1, universe / 4))
                : rng.below(universe);
            op.args[2] = rng.chance(0.35) ? 1 : 0;
        } else {
            op.kind = 'u';
            op.nargs = 3;
            op.args[0] = asid;
            op.args[1] = rng.below(universe);
            op.args[2] = 1 + rng.below(8);
        }
        t.ops.push_back(op);
    }
    return t;
}

Trace
generateMosaicVm(Rng &rng, std::size_t numOps)
{
    Trace t;
    t.component = "vm";
    t.setCfg("kind", "mosaic");
    struct Shape
    {
        unsigned f, b, d;
    };
    static constexpr Shape shapes[] = {{6, 2, 2}, {12, 4, 3}, {56, 8, 6}};
    const Shape shape = shapes[rng.pickWeighted({0.45, 0.35, 0.2})];
    const std::uint64_t buckets = shape.d + 1 + rng.below(4);
    t.setCfgUint("buckets", buckets);
    t.setCfgUint("front", shape.f);
    t.setCfgUint("back", shape.b);
    t.setCfgUint("d", shape.d);
    static constexpr unsigned arities[] = {1, 2, 4, 8};
    const unsigned arity = arities[rng.below(4)];
    t.setCfgUint("arity", arity);
    t.setCfg("sharing", "pageid");
    static constexpr const char *policies[] = {"horizon", "local",
                                               "shrunken"};
    t.setCfg("policy", policies[rng.pickWeighted({0.6, 0.2, 0.2})]);
    t.setCfgUint("shrink_ppm", 20000);
    (void)rng(); // the retired "cfg seed" draw: later draws stay put
    t.setCfgUint("hashseed", rng());
    t.setCfgUint("deep", 512);

    const std::uint64_t frames = buckets * (shape.f + shape.b);
    const std::uint64_t numAsids = 1 + rng.below(3);
    const std::uint64_t numTocs = std::max<std::uint64_t>(
        2, frames * (120 + rng.below(180)) / 100 / arity / numAsids);
    const std::uint64_t universe = numTocs * arity;

    for (std::size_t i = 0; i < numOps; ++i) {
        TraceOp op;
        const bool touch = rng.pickWeighted({0.82, 0.12}) == 0;
        const Asid asid = static_cast<Asid>(1 + rng.below(numAsids));
        op.nargs = 3;
        op.args[0] = asid;
        if (touch) {
            op.kind = 't';
            const std::uint64_t mvpn = rng.chance(0.5)
                ? rng.below(std::max<std::uint64_t>(1, numTocs / 4))
                : rng.below(numTocs);
            op.args[1] = mvpn * arity + rng.below(arity);
            op.args[2] = rng.chance(0.35) ? 1 : 0;
        } else {
            op.kind = 'u';
            op.args[1] = rng.below(universe);
            op.args[2] = 1 + rng.below(2 * std::uint64_t{arity});
        }
        t.ops.push_back(op);
    }
    return t;
}

namespace
{

/** A tiny randomized instance of one scenario engine (DESIGN.md
 *  §15); the config knobs come from the trace's rng so each seed
 *  exercises a different engine shape. */
std::unique_ptr<Workload>
makeTinyEngine(std::string_view kind, Rng &rng)
{
    if (kind == "warp") {
        WarpConfig c;
        static constexpr unsigned widths[] = {8, 16, 32};
        c.warpWidth = widths[rng.below(3)];
        c.numWarps = 1 + static_cast<unsigned>(rng.below(4));
        c.bufferBytes = (std::uint64_t{256} << 10) << rng.below(3);
        c.laneStrideBytes = rng.chance(0.5) ? 8192 : 4096;
        c.coalesceFactor = 0.25 * static_cast<double>(rng.below(4));
        c.divergenceRate = 0.05 * static_cast<double>(rng.below(3));
        c.numInstructions = 4000;
        c.seed = rng();
        return std::make_unique<WarpGpu>(c);
    }
    if (kind == "kv") {
        KvServerConfig c;
        c.numKeys = std::uint64_t{1024} << rng.below(3);
        c.zipfTheta = 0.6 + 0.1 * static_cast<double>(rng.below(4));
        c.hotKeyFraction = 0.1 + 0.2 * static_cast<double>(rng.below(3));
        c.getFraction = 0.5 + 0.1 * static_cast<double>(rng.below(5));
        c.numOps = 8000;
        c.includeLoadPhase = rng.chance(0.5);
        c.seed = rng();
        return std::make_unique<KvServer>(c);
    }
    if (kind == "session") {
        WebSessionConfig c;
        c.maxSessions = std::uint64_t{64} << rng.below(3);
        c.arrivalEvery = 4 + rng.below(12);
        c.meanLifetimeRequests = 500 * (1 + rng.below(4));
        c.numRequests = 8000;
        c.seed = rng();
        return std::make_unique<WebSession>(c);
    }
    ensure(kind == "scan", "makeTinyEngine: unknown engine kind");
    ScanAnalyticsConfig c;
    c.rowCount = 8000 * (1 + rng.below(3));
    c.numColumns = 1 + static_cast<unsigned>(rng.below(3));
    c.dimRows = 512;
    c.aggBytes = 64 << 10;
    c.lookupEvery = std::uint64_t{16} << rng.below(3);
    c.passes = 1 + static_cast<unsigned>(rng.below(2));
    c.seed = rng();
    return std::make_unique<ScanAnalytics>(c);
}

} // namespace

/**
 * VM trace driven by a scenario engine's real reference stream
 * (DESIGN.md §15): the engine's page stream is folded onto a small
 * mosaic/linux VM universe (modulo keeps stride and locality
 * structure intact), with one engine instance per ASID switched
 * every 256 ops and ~5 % random unmaps so eviction and refill run
 * under the engines' access shapes rather than uniform noise.
 */
Trace
generateWorkloadVm(Rng &rng, std::size_t numOps, std::string_view kind)
{
    Trace t;
    t.component = "vm";
    std::uint64_t universe;
    std::uint64_t unmapSpan = 4;
    if (rng.chance(0.35)) {
        t.setCfg("kind", "linux");
        const std::uint64_t frames = 96 + rng.below(160);
        t.setCfgUint("frames", frames);
        t.setCfgUint("watermark_ppm", 8000);
        static constexpr unsigned batches[] = {1, 8, 32};
        t.setCfgUint("batch", batches[rng.below(3)]);
        t.setCfgUint("deep", 512);
        universe = frames * (120 + rng.below(200)) / 100;
    } else {
        t.setCfg("kind", "mosaic");
        struct Shape
        {
            unsigned f, b, d;
        };
        static constexpr Shape shapes[] = {
            {6, 2, 2}, {12, 4, 3}, {56, 8, 6}};
        const Shape shape = shapes[rng.pickWeighted({0.45, 0.35, 0.2})];
        const std::uint64_t buckets = shape.d + 1 + rng.below(4);
        t.setCfgUint("buckets", buckets);
        t.setCfgUint("front", shape.f);
        t.setCfgUint("back", shape.b);
        t.setCfgUint("d", shape.d);
        static constexpr unsigned arities[] = {1, 2, 4, 8};
        const unsigned arity = arities[rng.below(4)];
        t.setCfgUint("arity", arity);
        t.setCfg("sharing", "pageid");
        static constexpr const char *policies[] = {"horizon", "local",
                                                   "shrunken"};
        t.setCfg("policy", policies[rng.pickWeighted({0.6, 0.2, 0.2})]);
        t.setCfgUint("shrink_ppm", 20000);
        (void)rng(); // the retired "cfg seed" draw: later draws stay put
        t.setCfgUint("hashseed", rng());
        t.setCfgUint("deep", 512);
        const std::uint64_t frames = buckets * (shape.f + shape.b);
        const std::uint64_t numTocs = std::max<std::uint64_t>(
            2, frames * (120 + rng.below(180)) / 100 / arity);
        universe = numTocs * arity;
        unmapSpan = arity;
    }

    const unsigned numAsids = 1 + static_cast<unsigned>(rng.below(2));
    std::vector<std::vector<MemRef>> streams;
    for (unsigned a = 0; a < numAsids; ++a) {
        const auto engine = makeTinyEngine(kind, rng);
        VectorSink sink;
        engine->run(sink);
        streams.push_back(sink.trace());
        ensure(!streams.back().empty(), "engine emitted no accesses");
    }
    std::vector<std::size_t> cursor(numAsids, 0);

    for (std::size_t i = 0; i < numOps; ++i) {
        const unsigned a =
            static_cast<unsigned>((i / 256) % numAsids);
        TraceOp op;
        if (rng.chance(0.05)) {
            op.kind = 'u';
            op.nargs = 3;
            op.args[0] = a + 1;
            op.args[1] = rng.below(universe);
            op.args[2] = 1 + rng.below(2 * unmapSpan);
        } else {
            const std::vector<MemRef> &s = streams[a];
            const MemRef ref = s[cursor[a]];
            cursor[a] = (cursor[a] + 1) % s.size();
            op.kind = 't';
            op.nargs = 3;
            op.args[0] = a + 1;
            op.args[1] = vpnOf(ref.vaddr) % universe;
            op.args[2] = ref.write ? 1 : 0;
        }
        t.ops.push_back(op);
    }
    return t;
}

} // namespace mosaic::fuzz
