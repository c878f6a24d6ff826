#include "core/fragmentation_sim.hh"

#include "mem/buddy_allocator.hh"
#include "mem/fragmenter.hh"
#include "mem/frame_table.hh"
#include "mem/mosaic_allocator.hh"
#include "pt/mosaic_page_table.hh"
#include "pt/vanilla_page_table.hh"
#include "tlb/coalesced_tlb.hh"
#include "tlb/mosaic_tlb.hh"
#include "tlb/perforated_tlb.hh"
#include "tlb/vanilla_tlb.hh"
#include "util/log.hh"
#include "util/random.hh"
#include "workloads/access_sink.hh"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mosaic
{

namespace
{

/** ASID of the synthetic pinned pages. */
constexpr Asid pinnedAsid = 0xFFFF;

/** The four-design translation harness. */
class FragmentationSim : public AccessSink
{
  public:
    explicit FragmentationSim(const FragmentationOptions &options)
        : options_(options),
          buddyPlain_(options.numFrames),
          rng_(options.seed ^ 0xF7A6),
          mosaicGeometry_(makeGeometry(options)),
          mosaicAllocator_(mosaicGeometry_),
          mosaicFrames_(mosaicGeometry_.numFrames),
          mosaicPt_(options.mosaicArity,
                    mosaicAllocator_.mapper().codec().invalid()),
          tlb4k_(TlbGeometry{options.tlbEntries, options.ways}),
          tlbThp_(TlbGeometry{options.tlbEntries, options.ways}),
          tlbColt_(TlbGeometry{options.tlbEntries, options.ways}),
          tlbPerf_(TlbGeometry{options.tlbEntries, options.ways}),
          tlbMosaic_(TlbGeometry{options.tlbEntries, options.ways},
                     options.mosaicArity)
    {
        // One fragmentation pattern for both contiguity-based sides.
        const std::vector<Pfn> pinned =
            fragmentMemory(buddyPlain_, options.pinnedFraction, rng_,
                           options.pinGranularityOrder);
        buddyThp_ = std::make_unique<BuddyAllocator>(buddyPlain_);
        buddyPerf_ = std::make_unique<BuddyAllocator>(buddyPlain_);
        fragmentationIndex_ = buddyPlain_.fragmentationIndex();

        // Perforated pages: rank the 2 MiB physical windows by how
        // many pinned frames (future holes) each contains.
        const std::size_t windows = options.numFrames / 512;
        std::vector<unsigned> pinned_count(windows, 0);
        for (const Pfn pfn : pinned)
            ++pinned_count[pfn / 512];
        for (std::size_t w = 0; w < windows; ++w)
            windowOrder_.push_back(w);
        std::sort(windowOrder_.begin(), windowOrder_.end(),
                  [&](std::size_t a, std::size_t b) {
                      return pinned_count[a] < pinned_count[b];
                  });

        // The mosaic side carries the same *quantity* of pinned
        // pages, but placed through its own allocator: in a mosaic
        // system the pinned pages were iceberg-allocated too, so
        // their layout is hash-scattered by construction — physical
        // layout is exactly what mosaic does not depend on.
        Tick t = 0;
        for (std::size_t i = 0; i < pinned.size(); ++i) {
            const PageId id{pinnedAsid, static_cast<Vpn>(i)};
            const CandidateSet cand =
                mosaicAllocator_.mapper().candidates(id);
            const auto placement =
                mosaicAllocator_.place(cand, mosaicFrames_);
            ensure(placement.has_value(),
                   "fragmentation_sim: pinned fraction beyond "
                   "mosaic capacity");
            mosaicFrames_.map(placement->pfn, id, ++t);
        }
    }

    /** Demand-map a page outside the measured run — models the
     *  construction phase, whose faults arrive in roughly ascending
     *  VA order and therefore receive roughly sequential frames on
     *  unfragmented memory (the contiguity CoLT harvests). */
    void
    prefault(Vpn vpn)
    {
        ensureMapped(vpn);
    }

    void
    access(Addr vaddr, bool) override
    {
        const Vpn vpn = vpnOf(vaddr);
        ++accesses_;
        ensureMapped(vpn);

        if (!tlb4k_.lookup(asid_, vpn)) {
            const VanillaWalkResult walk = pt4k_.walk(vpn);
            tlb4k_.fill(asid_, vpn, walk.pfn);
        }

        if (!tlbThp_.lookup(asid_, vpn)) {
            const VanillaWalkResult walk = ptThp_.walk(vpn);
            if (walk.huge)
                tlbThp_.fillHuge(asid_, vpn, walk.pfn - (vpn & 0x1FF));
            else
                tlbThp_.fill(asid_, vpn, walk.pfn);
        }

        if (!tlbColt_.lookup(asid_, vpn)) {
            const VanillaWalkResult walk = pt4k_.walk(vpn);
            tlbColt_.fill(asid_, vpn, walk.pfn, [this](Vpn v) {
                const VanillaWalkResult w = pt4k_.walk(v);
                return w.present ? std::optional<Pfn>(w.pfn)
                                 : std::nullopt;
            });
        }

        if (!tlbPerf_.lookup(asid_, vpn)) {
            const PerfRegion &region = perfRegions_.at(vpn >> 9);
            const unsigned off = vpn & 0x1FF;
            if (!region.perforated)
                tlbPerf_.fill4k(asid_, vpn, region.flat4k.at(off));
            else if (isHole(region.holes, off))
                tlbPerf_.fill4k(asid_, vpn, region.holePfns.at(off));
            else
                tlbPerf_.fillPerforated(asid_, vpn, region.basePfn,
                                        region.holes);
        }

        if (!tlbMosaic_.lookup(asid_, vpn)) {
            const MosaicWalkResult walk = mosaicPt_.walk(vpn);
            tlbMosaic_.fill(asid_, vpn, walk.toc,
                            mosaicPt_.unmappedCode());
        }
    }

    FragmentationResult
    result() const
    {
        FragmentationResult out;
        out.fragmentationIndex = fragmentationIndex_;
        out.hugeMappings = hugeMappings_;
        out.hugeFallbacks = hugeFallbacks_;
        out.perforatedRegions = perforatedRegions_;
        out.perforatedFallbacks = perforatedFallbacks_;
        out.meanHoles = perforatedRegions_ == 0
            ? 0.0
            : static_cast<double>(totalHoles_) /
                  static_cast<double>(perforatedRegions_);
        out.accesses = accesses_;
        out.misses4k = tlb4k_.stats().misses;
        out.missesThp = tlbThp_.stats().misses;
        out.missesColt = tlbColt_.stats().misses;
        out.missesPerforated = tlbPerf_.stats().misses;
        out.missesMosaic = tlbMosaic_.stats().misses;
        out.coltCoverage = tlbColt_.stats().misses == 0
            ? 0.0
            : static_cast<double>(tlbColt_.regionPages()) /
                  static_cast<double>(tlbColt_.stats().misses);
        return out;
    }

  private:
    static MemoryGeometry
    makeGeometry(const FragmentationOptions &options)
    {
        MemoryGeometry g;
        g.numFrames = options.numFrames;
        return g;
    }

    void
    ensureMapped(Vpn vpn)
    {
        if (pt4k_.walk(vpn).present)
            return;

        // Plain 4 KiB side (shared with CoLT): any free frame.
        const std::optional<Pfn> frame = buddyPlain_.allocateFrame();
        ensure(frame.has_value(),
               "fragmentation_sim: plain side out of memory");
        pt4k_.map(vpn, *frame);

        // THP side: the first touch in a 2 MiB region decides once —
        // a huge mapping if the buddy allocator still has an aligned
        // block, else the whole region stays 4 KiB.
        if (!ptThp_.walk(vpn).present) {
            const Vpn region = vpn >> 9;
            if (!thp4kRegions_.contains(region)) {
                if (const auto huge = buddyThp_->allocateHuge()) {
                    ptThp_.mapHuge(vpn, *huge);
                    ++hugeMappings_;
                } else {
                    thp4kRegions_.insert(region);
                    ++hugeFallbacks_;
                }
            }
            if (thp4kRegions_.contains(region)) {
                const auto fallback = buddyThp_->allocateFrame();
                ensure(fallback.has_value(),
                       "fragmentation_sim: THP side out of memory");
                ptThp_.map(vpn, *fallback);
            }
        }

        // Perforated-pages side: the first touch of a 2 MiB region
        // claims the least-pinned remaining physical window if its
        // current hole count is tolerable; holes get individual
        // frames. Otherwise the whole region falls back to 4 KiB.
        {
            PerfRegion &region = perfRegions_[vpn >> 9];
            if (!region.decided)
                decidePerforated(region);
            if (!region.perforated) {
                const unsigned off = vpn & 0x1FF;
                if (!region.flat4k.contains(off)) {
                    const auto frame = buddyPerf_->allocateFrame();
                    ensure(frame.has_value(),
                           "fragmentation_sim: perforated side out "
                           "of memory");
                    region.flat4k.emplace(off, *frame);
                }
            }
        }

        // Mosaic side: iceberg placement around the pinned frames.
        const CandidateSet cand = mosaicAllocator_.mapper().candidates(
            PageId{asid_, vpn});
        const auto placement =
            mosaicAllocator_.place(cand, mosaicFrames_);
        ensure(placement.has_value(),
               "fragmentation_sim: mosaic conflict (pinned fraction "
               "+ footprint too close to capacity)");
        mosaicFrames_.map(placement->pfn, PageId{asid_, vpn}, ++clock_);
        mosaicPt_.setCpfn(vpn, placement->cpfn);
    }

    /** One VA 2 MiB region's perforated-pages state. */
    struct PerfRegion
    {
        bool decided = false;
        bool perforated = false;
        Pfn basePfn = invalidPfn;
        HoleBitmap holes{};
        std::unordered_map<unsigned, Pfn> holePfns;
        std::unordered_map<unsigned, Pfn> flat4k;
    };

    /** Claim a physical window for a region, or mark it fallback. */
    void
    decidePerforated(PerfRegion &region)
    {
        region.decided = true;
        while (windowCursor_ < windowOrder_.size()) {
            const std::size_t w = windowOrder_[windowCursor_];
            ++windowCursor_;
            const Pfn base = static_cast<Pfn>(w) * 512;
            unsigned holes = 0;
            for (unsigned i = 0; i < 512; ++i)
                holes += buddyPerf_->isFree(base + i) ? 0 : 1;
            if (holes > options_.maxHolesPerRegion)
                continue; // windows are sorted: later ones are worse
            region.perforated = true;
            region.basePfn = base;
            for (unsigned i = 0; i < 512; ++i) {
                if (buddyPerf_->isFree(base + i)) {
                    const bool ok = buddyPerf_->allocateSpecific(base + i);
                    ensure(ok, "fragmentation_sim: window race");
                } else {
                    setHole(region.holes, i);
                    const auto frame = buddyPerf_->allocateFrame();
                    ensure(frame.has_value(),
                           "fragmentation_sim: no frame for hole");
                    region.holePfns.emplace(i, *frame);
                }
            }
            ++perforatedRegions_;
            totalHoles_ += holes;
            return;
        }
        ++perforatedFallbacks_;
    }

    FragmentationOptions options_;
    BuddyAllocator buddyPlain_;
    std::unique_ptr<BuddyAllocator> buddyThp_;
    std::unique_ptr<BuddyAllocator> buddyPerf_;
    Rng rng_;

    MemoryGeometry mosaicGeometry_;
    MosaicAllocator mosaicAllocator_;
    FrameTable mosaicFrames_;

    VanillaPageTable pt4k_;
    VanillaPageTable ptThp_;
    MosaicPageTable mosaicPt_;

    VanillaTlb tlb4k_;
    VanillaTlb tlbThp_;
    CoalescedTlb tlbColt_;
    PerforatedTlb tlbPerf_;
    MosaicTlb tlbMosaic_;

    /** Perforated-pages bookkeeping. */
    std::unordered_map<Vpn, PerfRegion> perfRegions_;
    std::vector<std::size_t> windowOrder_;
    std::size_t windowCursor_ = 0;
    std::uint64_t perforatedRegions_ = 0;
    std::uint64_t perforatedFallbacks_ = 0;
    std::uint64_t totalHoles_ = 0;

    /** THP regions that fell back to 4 KiB mappings. */
    std::unordered_set<Vpn> thp4kRegions_;

    Asid asid_ = 1;
    Tick clock_ = 0;
    double fragmentationIndex_ = 0.0;
    std::uint64_t accesses_ = 0;
    std::uint64_t hugeMappings_ = 0;
    std::uint64_t hugeFallbacks_ = 0;
};

} // namespace

FragmentationResult
runFragmentation(const FragmentationOptions &options)
{
    ensure(options.pinnedFraction + options.footprintFraction < 0.95,
           "fragmentation: pinned + footprint must leave headroom");

    FragmentationSim sim(options);
    const auto footprint = static_cast<std::uint64_t>(
        static_cast<double>(options.numFrames) * pageSize *
        options.footprintFraction);
    const auto workload =
        makeFootprintWorkload(options.kind, footprint, options.seed);

    // Construction phase: discover the working set and fault it in
    // ascending VA order (see prefault()).
    class PageSetSink : public AccessSink
    {
      public:
        void
        access(Addr vaddr, bool) override
        {
            pages.insert(vpnOf(vaddr));
        }
        std::set<Vpn> pages;
    } pages;
    workload->run(pages);
    for (const Vpn vpn : pages.pages)
        sim.prefault(vpn);

    // Measured phase.
    workload->run(sim);
    return sim.result();
}

} // namespace mosaic
