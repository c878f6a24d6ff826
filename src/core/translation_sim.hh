/**
 * @file
 * The translation simulator behind Figure 6: every data reference of
 * a workload is fed simultaneously to a conventional TLB and to
 * mosaic TLBs of several arities — and, across the other sweep axis,
 * to instances of every associativity — mirroring the paper's gem5
 * model, which runs a vanilla and a mosaic TLB side by side on one
 * execution (§3.1).
 *
 * Memory is ample in this experiment (no swapping); the simulator
 * performs demand mapping: the first touch of a page allocates a
 * frame on the vanilla side (bump allocation) and a mosaic placement
 * via the iceberg allocator, then installs page-table entries in
 * every page table.
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
#include <vector>

#include <string>

#include "mem/frame_table.hh"
#include "mem/mosaic_allocator.hh"
#include "pt/mosaic_page_table.hh"
#include "pt/vanilla_page_table.hh"
#include "tlb/mosaic_tlb.hh"
#include "tlb/translation_design.hh"
#include "tlb/vanilla_tlb.hh"
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

/**
 * Synthetic instruction-fetch stream for the ITLB (Table 1a models
 * a unified 1024-entry L1 ITLB). Fetches loop over a hot code
 * region with occasional excursions into cold library text; with
 * realistic code sizes the ITLB contribution is tiny, which is why
 * it is off by default and Figure 6 reports the data side.
 */
struct InstrConfig
{
    /** Emit one fetch translation per data access when true. */
    bool enabled = false;

    /** Total text segment modeled. */
    std::uint64_t codeBytes = std::uint64_t{2} << 20;

    /** Fraction of fetches staying in the hot loop region. */
    double hotFraction = 0.95;

    /** Size of the hot region. */
    std::uint64_t hotBytes = std::uint64_t{64} << 10;
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
    InstrConfig instr{};

    /**
     * Registry specs (DESIGN.md §14) of pluggable translation designs
     * driven alongside the builtin grid: every *data* reference is fed
     * to each design after the grid TLBs (the kernel and instruction
     * streams stay grid-only, so design stats compare workloads, not
     * the huge-page artifact). A bad spec is a configuration error
     * (fatal). Empty = no designs, zero overhead.
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

    /** Pluggable designs built from config.designSpecs, in order. */
    std::size_t numDesigns() const { return designs_.size(); }
    const TranslationDesign &
    design(std::size_t i) const
    {
        return *designs_.at(i);
    }

    const TlbStats &vanillaStats(std::size_t ways_idx) const;
    const TlbStats &mosaicStats(std::size_t ways_idx,
                                std::size_t arity_idx) const;

    /** ITLB counters (meaningful only with instr.enabled). */
    const TlbStats &itlbVanillaStats(std::size_t ways_idx) const;
    const TlbStats &itlbMosaicStats(std::size_t ways_idx,
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
    void instructionFetch();
    void translate(Vpn vpn, bool kernel);

    /**
     * The designs' window onto this simulator's page tables
     * (DESIGN.md §14): full PFNs come from the vanilla page table
     * (whose bump allocation is the contiguity designs' best case),
     * mosaic ToCs from the per-page CPFN record ensureMapped keeps —
     * one CPFN per page, valid for every arity, so designs may use
     * arities the mosaic grid does not instantiate.
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

    // Vanilla side (one page table per address space).
    std::vector<std::unique_ptr<VanillaTlb>> vanillaTlbs_;
    FlatMap<Asid, std::unique_ptr<VanillaPageTable>> vanillaPts_;
    Pfn vanillaNextPfn_ = 0;

    /** Mosaic page tables of one address space, one per arity. */
    using MosaicPtSet = std::vector<std::unique_ptr<MosaicPageTable>>;

    MosaicPtSet &mosaicPtsFor(Asid asid);
    VanillaPageTable &vanillaPtFor(Asid asid);

    // Mosaic side: per-ASID page tables, TLB grid [ways][arity].
    MosaicAllocator allocator_;
    FrameTable frames_;
    FlatMap<Asid, MosaicPtSet> mosaicPts_;
    std::vector<std::vector<std::unique_ptr<MosaicTlb>>> mosaicTlbs_;

    // Instruction TLBs (same grid shape, fed by synthetic fetches).
    std::vector<std::unique_ptr<VanillaTlb>> itlbVanilla_;
    std::vector<std::vector<std::unique_ptr<MosaicTlb>>> itlbMosaic_;

    // Pluggable designs (data stream only) and their walker state:
    // CPFN by packPageId(asid, vpn), recorded only when designs exist.
    std::vector<std::unique_ptr<TranslationDesign>> designs_;
    FlatMap<std::uint64_t, Cpfn> designCpfns_;
    DesignWalker designWalker_{*this};

    // Kernel stream state.
    Addr kernelBase_;
    Rng kernelRng_;
    unsigned sinceKernel_ = 0;

    // Instruction stream state.
    Addr codeBase_ = Addr{0x400000};
    Rng instrRng_{0xF37C4};

    Asid activeAsid_;
    std::uint64_t accesses_ = 0;
    std::uint64_t mappedPages_ = 0;
    Tick clock_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_CORE_TRANSLATION_SIM_HH_
