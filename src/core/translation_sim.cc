#include "core/translation_sim.hh"

#include <algorithm>

#include "tlb/design_registry.hh"
#include "util/log.hh"

namespace mosaic
{

namespace
{

/** TLB tag used for kernel mappings: they behave like x86 global
 *  pages, shared by every process. */
constexpr Asid kernelAsid = 0;

std::unique_ptr<TranslationDesign>
buildDesign(const std::string &spec, const DesignParams &defaults)
{
    Result<std::unique_ptr<TranslationDesign>> design =
        makeTranslationDesign(spec, defaults);
    if (!design.ok())
        fatal("translation_sim: " + design.status().toString());
    return std::move(design.value());
}

} // namespace

TranslationSim::TranslationSim(const TranslationSimConfig &config)
    : config_(config),
      allocator_(config.memory),
      frames_(config.memory.numFrames),
      kernelBase_(Addr{1} << 40),
      kernelRng_(config.seed ^ 0x4B45524Eull),
      activeAsid_(config.asid)
{
    for (const unsigned ways : config_.waysList) {
        const DesignParams params{TlbGeometry{config_.tlbEntries, ways}};
        designs_.push_back(buildDesign("vanilla", params));
        for (const unsigned arity : config_.arities) {
            designs_.push_back(buildDesign(
                "mosaic:arity=" + std::to_string(arity), params));
        }
    }
    gridSize_ = designs_.size();

    const DesignParams defaults{
        TlbGeometry{config_.tlbEntries, config_.designWays}};
    for (const std::string &spec : config_.designSpecs)
        designs_.push_back(buildDesign(spec, defaults));
}

std::optional<Pfn>
TranslationSim::DesignWalker::pfnOf(Asid asid, Vpn vpn)
{
    const VanillaWalkResult walk = sim_.vanillaPtFor(asid).walk(vpn);
    if (!walk.present)
        return std::nullopt;
    return walk.pfn;
}

void
TranslationSim::DesignWalker::tocOf(Asid asid, Vpn vpn, unsigned arity,
                                    std::span<Cpfn> out)
{
    const MosaicWalkResult walk = sim_.mosaicPtFor(asid).walk(vpn);
    if (walk.toc.empty()) {
        std::fill(out.begin(), out.end(), unmappedCode());
        return;
    }
    const std::size_t first = (vpn % maxArity) & ~std::size_t{arity - 1};
    std::copy_n(walk.toc.begin() + first, arity, out.begin());
}

Cpfn
TranslationSim::DesignWalker::unmappedCode() const
{
    return sim_.allocator_.mapper().codec().invalid();
}

VanillaPageTable &
TranslationSim::vanillaPtFor(Asid asid)
{
    auto [pt, inserted] = vanillaPts_.emplace(asid);
    if (inserted)
        pt = std::make_unique<VanillaPageTable>();
    return *pt;
}

MosaicPageTable &
TranslationSim::mosaicPtFor(Asid asid)
{
    auto [pt, inserted] = mosaicPts_.emplace(asid);
    if (inserted) {
        pt = std::make_unique<MosaicPageTable>(
            maxArity, allocator_.mapper().codec().invalid());
    }
    return *pt;
}

std::size_t
TranslationSim::gridIndex(std::size_t ways_idx, std::size_t slot) const
{
    ensure(ways_idx < numWays() && slot <= numArities(),
           "translation_sim: grid index out of range");
    return ways_idx * (1 + numArities()) + slot;
}

const TlbStats &
TranslationSim::vanillaStats(std::size_t ways_idx) const
{
    return designs_[gridIndex(ways_idx, 0)]->stats();
}

const TlbStats &
TranslationSim::mosaicStats(std::size_t ways_idx,
                            std::size_t arity_idx) const
{
    return designs_[gridIndex(ways_idx, 1 + arity_idx)]->stats();
}

Pfn
TranslationSim::vanillaPfnOf(Vpn vpn) const
{
    auto *self = const_cast<TranslationSim *>(this);
    const VanillaWalkResult walk =
        self->vanillaPtFor(activeAsid_).walk(vpn);
    return walk.present ? walk.pfn : invalidPfn;
}

Pfn
TranslationSim::mosaicPfnOf(Vpn vpn) const
{
    auto *self = const_cast<TranslationSim *>(this);
    const MosaicWalkResult walk = self->mosaicPtFor(activeAsid_).walk(vpn);
    if (!walk.present)
        return invalidPfn;
    const CandidateSet cand = allocator_.mapper().candidates(
        PageId{activeAsid_, vpn});
    return allocator_.mapper().toPfn(cand, walk.cpfn);
}

void
TranslationSim::ensureMapped(Vpn vpn)
{
    VanillaPageTable &vanilla_pt = vanillaPtFor(activeAsid_);
    if (vanilla_pt.walk(vpn).present)
        return;

    // Vanilla side: bump allocation of a fresh frame.
    vanilla_pt.map(vpn, vanillaNextPfn_++);

    // Mosaic side: iceberg placement. Memory is sized well below the
    // conflict regime for this experiment, so a conflict means the
    // harness configured too little memory.
    ++clock_;
    const CandidateSet cand = allocator_.mapper().candidates(
        PageId{activeAsid_, vpn});
    const std::optional<Placement> placement =
        allocator_.place(cand, frames_);
    if (!placement) {
        fatal("translation_sim: mosaic memory too small for workload "
              "(associativity conflict during demand mapping)");
    }
    frames_.map(placement->pfn, PageId{activeAsid_, vpn}, clock_);
    mosaicPtFor(activeAsid_).setCpfn(vpn, placement->cpfn);
    ++mappedPages_;
}

void
TranslationSim::kernelAccess()
{
    const KernelConfig &k = config_.kernel;
    std::uint64_t offset;
    if (kernelRng_.chance(k.hotFraction))
        offset = kernelRng_.below(k.hotBytes);
    else
        offset = kernelRng_.below(k.regionBytes);
    ++accesses_;
    const Vpn vpn = vpnOf(kernelBase_ + offset);

    // The kernel is mapped with 2 MiB pages under a global ASID tag
    // shared by every process.
    VanillaPageTable &kernel_pt = vanillaPtFor(kernelAsid);
    VanillaWalkResult walk = kernel_pt.walk(vpn);
    if (!walk.present) {
        // Allocate a 512-frame-aligned huge region lazily.
        vanillaNextPfn_ = (vanillaNextPfn_ + 511) & ~Pfn{511};
        kernel_pt.mapHuge(vpn, vanillaNextPfn_);
        vanillaNextPfn_ += 512;
        walk = kernel_pt.walk(vpn);
    }
    for (auto &design : designs_)
        design->accessHuge(kernelAsid, vpn, walk.pfn);
}

void
TranslationSim::access(Addr vaddr, bool /*write*/)
{
    ++accesses_;
    const Vpn vpn = vpnOf(vaddr);
    ensureMapped(vpn);
    for (auto &design : designs_)
        design->access(activeAsid_, vpn, designWalker_);

    if (config_.kernel.accessEvery != 0 &&
            ++sinceKernel_ >= config_.kernel.accessEvery) {
        sinceKernel_ = 0;
        kernelAccess();
    }
}

} // namespace mosaic
