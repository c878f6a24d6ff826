#include "tlb/stride_tlb.hh"

#include <string>

namespace mosaic
{

namespace
{

std::string
strideName(const StrideConfig &config, const TranslationDesign &base)
{
    return std::string("stride:mode=") +
           (config.arbitrary ? "arbitrary" : "fixed") +
           ",degree=" + std::to_string(config.degree) + ",base=[" +
           base.name() + "]";
}

} // namespace

StrideDesign::StrideDesign(StrideConfig config,
                           std::unique_ptr<TranslationDesign> base)
    : TranslationDesign(strideName(config, *base)), config_(config),
      base_(std::move(base))
{
}

void
StrideDesign::issue(Asid asid, Vpn target, TranslationWalker &walker)
{
    ++counters_.prefetchesIssued;
    if (base_->prefetchFill(asid, target, walker))
        ++counters_.prefetchFills;
}

bool
StrideDesign::access(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    // Update the stride tracker first: the trigger decision uses the
    // stride as of *this* reference, mirrored exactly by the oracle.
    AsidState &st = state_[asid];
    std::int64_t stride = 0;
    bool confirmed = false;
    if (st.seen > 0) {
        stride = static_cast<std::int64_t>(vpn) -
                 static_cast<std::int64_t>(st.lastVpn);
        confirmed = st.seen > 1 && stride != 0 && stride == st.stride;
        st.stride = stride;
        st.seen = 2;
    } else {
        st.seen = 1;
    }
    st.lastVpn = vpn;

    const bool hit = base_->access(asid, vpn, walker);
    if (hit)
        return true;

    if (!config_.arbitrary) {
        for (unsigned k = 1; k <= config_.degree; ++k)
            issue(asid, vpn + k, walker);
    } else if (confirmed) {
        for (unsigned k = 1; k <= config_.degree; ++k) {
            const std::int64_t target =
                static_cast<std::int64_t>(vpn) +
                stride * static_cast<std::int64_t>(k);
            if (target < 0)
                break;
            issue(asid, static_cast<Vpn>(target), walker);
        }
    }
    return false;
}

std::optional<Pfn>
StrideDesign::contains(Asid asid, Vpn vpn) const
{
    return base_->contains(asid, vpn);
}

bool
StrideDesign::prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    return base_->prefetchFill(asid, vpn, walker);
}

void
StrideDesign::invalidatePage(Asid asid, Vpn vpn)
{
    base_->invalidatePage(asid, vpn);
}

void
StrideDesign::flushAsid(Asid asid)
{
    base_->flushAsid(asid);
    state_.erase(asid);
}

DesignCounters
StrideDesign::counters() const
{
    DesignCounters c = base_->counters();
    c.prefetchesIssued = counters_.prefetchesIssued;
    c.prefetchFills = counters_.prefetchFills;
    return c;
}

} // namespace mosaic
