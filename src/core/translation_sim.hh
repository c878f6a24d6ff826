/**
 * @file
 * The translation simulator behind Figure 6: every data reference of
 * a workload is fed simultaneously to a conventional TLB and to
 * mosaic TLBs of several arities — and, across the other sweep axis,
 * to instances of every associativity — mirroring the paper's gem5
 * model, which runs a vanilla and a mosaic TLB side by side on one
 * execution (§3.1). Every TLB is a registry design (DESIGN.md §14):
 * the vanilla x mosaic grid is simply the first part of one design
 * list, and any extra designSpecs follow it.
 *
 * Memory is ample in this experiment (no swapping); the simulator
 * performs demand mapping: the first touch of a page allocates a
 * frame on the vanilla side (bump allocation) and a mosaic placement
 * via the iceberg allocator, then installs page-table entries in
 * both page tables.
 *
 * A configurable background "kernel" access stream models the
 * artifact the paper documents: the vanilla kernel is mapped with
 * 2 MiB huge pages, giving vanilla a small advantage, while in mosaic
 * mode each kernel page consumes a whole conventional TLB entry.
 */

#ifndef MOSAIC_CORE_TRANSLATION_SIM_HH_
#define MOSAIC_CORE_TRANSLATION_SIM_HH_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mem/frame_table.hh"
#include "mem/mosaic_allocator.hh"
#include "pt/mosaic_page_table.hh"
#include "pt/vanilla_page_table.hh"
#include "tlb/translation_design.hh"
#include "util/flat_map.hh"
#include "util/random.hh"
#include "workloads/access_sink.hh"

namespace mosaic
{

/** Background kernel accesses (huge-mapped on the vanilla side). */
struct KernelConfig
{
    /** Zero disables the kernel stream. */
    unsigned accessEvery = 64;

    /** Size of the modeled kernel working region. */
    std::uint64_t regionBytes = std::uint64_t{64} << 20;

    /** Fraction of kernel accesses hitting the hot subset. */
    double hotFraction = 0.9;

    /** Size of the hot subset. */
    std::uint64_t hotBytes = std::uint64_t{1} << 20;
};

/** Configuration of the dual-TLB sweep simulator. */
struct TranslationSimConfig
{
    /** Mosaic physical memory; must comfortably exceed the workload
     *  footprint (no swapping in this experiment). */
    MemoryGeometry memory{};

    /** Total TLB entries (Table 1a: 1024). */
    unsigned tlbEntries = 1024;

    /** TLB associativities to instantiate; tlbEntries = fully
     *  associative (paper: direct, 2, 4, 8, full). */
    std::vector<unsigned> waysList{1, 2, 4, 8, 1024};

    /** Mosaic arities to instantiate (paper: 4..64). */
    std::vector<unsigned> arities{4, 8, 16, 32, 64};

    KernelConfig kernel{};

    /**
     * Registry specs (DESIGN.md §14) of extra translation designs,
     * driven after the waysList x arities grid. Every reference
     * reaches every design; the kernel stream arrives through
     * TranslationDesign::accessHuge, which only vanilla and mosaic
     * implement, so other kinds need kernel.accessEvery = 0. A bad
     * spec is a configuration error (fatal).
     */
    std::vector<std::string> designSpecs;

    /** Default associativity for designSpecs entries that do not set
     *  'ways' explicitly (their entry count defaults to tlbEntries). */
    unsigned designWays = 8;

    Asid asid = 1;
    std::uint64_t seed = 7;
};

/** Feeds one reference stream to the whole TLB configuration grid. */
class TranslationSim : public AccessSink
{
  public:
    explicit TranslationSim(const TranslationSimConfig &config);

    /** One workload data reference (AccessSink). */
    void access(Addr vaddr, bool write) override;

    /**
     * Process a block of data references. Exactly equivalent to
     * calling access() per reference in order — the batch only adds
     * a prefetch stage that warms each reference's TLB set lines a
     * fixed lookahead ahead of the translate that consumes them.
     */
    void accessBatch(std::span<const MemRef> block);

    /**
     * Switch the address space subsequent accesses run in — a
     * context switch. TLB entries are ASID-tagged, so nothing is
     * flushed; translations of other processes simply stop hitting.
     */
    void setActiveAsid(Asid asid) { activeAsid_ = asid; }

    Asid activeAsid() const { return activeAsid_; }

    std::size_t numWays() const { return config_.waysList.size(); }
    std::size_t numArities() const { return config_.arities.size(); }

    /** Designs built from config.designSpecs, in order (the grid
     *  designs are reached through vanillaStats/mosaicStats). */
    std::size_t numDesigns() const { return designs_.size() - gridSize_; }
    const TranslationDesign &
    design(std::size_t i) const
    {
        return *designs_.at(gridSize_ + i);
    }

    /** Grid design counters, indexed into waysList and arities. */
    const TlbStats &vanillaStats(std::size_t ways_idx) const;
    const TlbStats &mosaicStats(std::size_t ways_idx,
                                std::size_t arity_idx) const;

    /** Total references processed (workload + kernel). */
    std::uint64_t totalAccesses() const { return accesses_; }

    /** Workload pages demand-mapped so far. */
    std::uint64_t mappedPages() const { return mappedPages_; }

    /** PFN backing a page on the vanilla side; invalidPfn if the
     *  page was never touched. */
    Pfn vanillaPfnOf(Vpn vpn) const;

    /** PFN backing a page on the mosaic side; invalidPfn if the
     *  page was never touched. */
    Pfn mosaicPfnOf(Vpn vpn) const;

    /** Mosaic frame metadata, for consistency checks in tests. */
    const FrameTable &mosaicFrames() const { return frames_; }

  private:
    void ensureMapped(Vpn vpn);
    void kernelAccess();

    /** Index into designs_ of grid cell (ways_idx, slot); slot 0 is
     *  vanilla, slot 1 + a is mosaic arity a. */
    std::size_t gridIndex(std::size_t ways_idx, std::size_t slot) const;

    /**
     * The designs' window onto this simulator's page tables
     * (DESIGN.md §14): full PFNs come from the vanilla page table
     * (whose bump allocation is the contiguity designs' best case),
     * mosaic ToCs from one maxArity-wide mosaic page table per
     * address space. A page's CPFN does not depend on the arity, so
     * the ToC under arity A is the aligned A-slot slice of that leaf.
     */
    class DesignWalker final : public TranslationWalker
    {
      public:
        explicit DesignWalker(TranslationSim &sim) : sim_(sim) {}

        std::optional<Pfn> pfnOf(Asid asid, Vpn vpn) override;
        void tocOf(Asid asid, Vpn vpn, unsigned arity,
                   std::span<Cpfn> out) override;
        Cpfn unmappedCode() const override;

      private:
        TranslationSim &sim_;
    };

    TranslationSimConfig config_;

    // The grid (numWays x (1 + numArities), ways-major), then the
    // designSpecs designs.
    std::vector<std::unique_ptr<TranslationDesign>> designs_;
    std::size_t gridSize_ = 0;
    DesignWalker designWalker_{*this};

    MosaicPageTable &mosaicPtFor(Asid asid);
    VanillaPageTable &vanillaPtFor(Asid asid);

    // Vanilla side: one page table per address space.
    FlatMap<Asid, std::unique_ptr<VanillaPageTable>> vanillaPts_;
    Pfn vanillaNextPfn_ = 0;

    // Mosaic side: one page table per address space.
    MosaicAllocator allocator_;
    FrameTable frames_;
    FlatMap<Asid, std::unique_ptr<MosaicPageTable>> mosaicPts_;

    // Kernel stream state.
    Addr kernelBase_;
    Rng kernelRng_;
    unsigned sinceKernel_ = 0;

    Asid activeAsid_;
    std::uint64_t accesses_ = 0;
    std::uint64_t mappedPages_ = 0;
    Tick clock_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_CORE_TRANSLATION_SIM_HH_
