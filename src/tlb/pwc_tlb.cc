#include "tlb/pwc_tlb.hh"

#include <algorithm>
#include <string>

namespace mosaic
{

PwcDesign::PwcDesign(const PwcConfig &config,
                     std::unique_ptr<TranslationDesign> base)
    : TranslationDesign("pwc:l1=" + std::to_string(config.l1Entries) +
                        ",l2=" + std::to_string(config.l2Entries) +
                        ",base=[" + base->name() + "]"),
      base_(std::move(base)), pwc_(config)
{
}

bool
PwcDesign::access(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    const bool hit = base_->access(asid, vpn, walker);
    if (hit)
        return true;

    // The base charged a full radix walk; a PWC hit would have
    // resolved the cached upper levels without touching memory, so
    // discount the skipped levels (never the leaf reference itself).
    ++counters_.pwcLookups;
    const unsigned skipped = pwc_.skippable(asid, vpn);
    if (skipped > 0) {
        ++counters_.pwcHits;
        discount_ += std::min<std::uint64_t>(skipped,
                                             walker.walkLevels() - 1);
    }
    pwc_.fill(asid, vpn);
    return false;
}

std::optional<Pfn>
PwcDesign::contains(Asid asid, Vpn vpn) const
{
    return base_->contains(asid, vpn);
}

bool
PwcDesign::prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    return base_->prefetchFill(asid, vpn, walker);
}

void
PwcDesign::invalidatePage(Asid asid, Vpn vpn)
{
    // Upper-level PTEs survive a single-page invalidation.
    base_->invalidatePage(asid, vpn);
}

void
PwcDesign::flushAsid(Asid asid)
{
    base_->flushAsid(asid);
    pwc_.flushAsid(asid);
}

DesignCounters
PwcDesign::counters() const
{
    DesignCounters c = base_->counters();
    c.walkRefs -= discount_;
    c.pwcLookups = counters_.pwcLookups;
    c.pwcHits = counters_.pwcHits;
    return c;
}

} // namespace mosaic
