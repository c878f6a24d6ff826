#include "tlb/range_tlb.hh"

#include <string>

#include "util/log.hh"

namespace mosaic
{

RangeTlb::RangeTlb(const RangeTlbConfig &config)
    : TranslationDesign("range:ranges=" + std::to_string(config.entries) +
                        ",maxrun=" + std::to_string(config.maxRun)),
      entries_(config.entries), maxRun_(config.maxRun)
{
    ensure(config.entries > 0, "range tlb: empty geometry");
    ensure(config.maxRun > 0, "range tlb: zero max run");
}

std::optional<Pfn>
RangeTlb::lookup(Asid asid, Vpn vpn)
{
    ++stats_.accesses;
    for (Entry &e : entries_) {
        if (e.valid && e.asid == asid && e.run.covers(vpn)) {
            e.lastUse = ++useClock_;
            ++stats_.hits;
            return e.run.basePfn + (vpn - e.run.first);
        }
    }
    ++stats_.misses;
    return std::nullopt;
}

void
RangeTlb::fill(Asid asid, const ContigRun &run)
{
    // Keep one ASID's runs disjoint: drop anything the new run
    // overlaps (a remap changed the contiguity under a cached entry).
    for (Entry &e : entries_) {
        if (e.valid && e.asid == asid && e.run.first < run.first + run.length &&
            run.first < e.run.first + e.run.length) {
            e.valid = false;
            ++stats_.evictions;
        }
    }
    Entry *victim = nullptr;
    for (Entry &e : entries_) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (!victim || e.lastUse < victim->lastUse)
            victim = &e;
    }
    if (victim->valid)
        ++stats_.evictions;
    victim->valid = true;
    victim->asid = asid;
    victim->run = run;
    victim->lastUse = ++useClock_;
}

void
RangeTlb::invalidatePage(Asid asid, Vpn vpn)
{
    for (Entry &e : entries_) {
        if (e.valid && e.asid == asid && e.run.covers(vpn)) {
            e.valid = false;
            ++stats_.invalidations;
        }
    }
}

void
RangeTlb::flushAsid(Asid asid)
{
    for (Entry &e : entries_) {
        if (e.valid && e.asid == asid) {
            e.valid = false;
            ++stats_.invalidations;
        }
    }
}

std::optional<Pfn>
RangeTlb::contains(Asid asid, Vpn vpn) const
{
    for (const Entry &e : entries_) {
        if (e.valid && e.asid == asid && e.run.covers(vpn))
            return e.run.basePfn + (vpn - e.run.first);
    }
    return std::nullopt;
}

std::uint64_t
RangeTlb::reachPages() const
{
    std::uint64_t pages = 0;
    for (const Entry &e : entries_) {
        if (e.valid)
            pages += e.run.length;
    }
    return pages;
}

unsigned
RangeTlb::validEntries() const
{
    unsigned n = 0;
    for (const Entry &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

bool
RangeTlb::fillFromWalk(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    // One radix walk resolves the anchor; every neighbour probe the
    // run miner makes reads one more PTE.
    counters_.walkRefs += walker.walkLevels();
    std::uint64_t probes = 0;
    const std::optional<ContigRun> run = mineContigRun(
        [&](Vpn page) { return walker.pfnOf(asid, page); }, vpn, maxRun_,
        &probes);
    counters_.walkRefs += probes;
    if (!run)
        return false;
    fill(asid, *run);
    if (run->length > 1)
        ++counters_.regionFills;
    return true;
}

bool
RangeTlb::access(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (lookup(asid, vpn))
        return true;
    fillFromWalk(asid, vpn, walker);
    return false;
}

bool
RangeTlb::prefetchFill(Asid asid, Vpn vpn, TranslationWalker &walker)
{
    if (contains(asid, vpn))
        return false;
    return fillFromWalk(asid, vpn, walker);
}

} // namespace mosaic
