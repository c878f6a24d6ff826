#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "oracle/fuzz_internal.hh"
#include "oracle/oracle_designs.hh"
#include "tlb/design_registry.hh"
#include "tlb/translation_design.hh"
#include "util/log.hh"

namespace mosaic::fuzz
{

namespace
{

// ----------------------------------------------- design harness (§14)

/**
 * Deterministic page tables for the design harness: one
 * TranslationWalker whose answers are pure functions of (pseed, asid,
 * page), shared by the real design and its oracle so both always see
 * identical walk results. Each (asid, 2 MiB region) is one of two
 * layouts, half each:
 *  - a huge run: page i of the region maps to the region's aligned
 *    base + i, with sparse holes (1/16 of pages scattered, besides
 *    the unmapped ones) for the perforated design to punch;
 *  - 8-page groups: 3/4 of groups are physically contiguous runs
 *    (what the coalescer and the range miner harvest), the rest are
 *    scattered frames.
 * On top of both, 1/8 of pages are unmapped. Scattered frames are
 * occasionally below 8 or below 512, so the coalescer's and the
 * perforated design's underflow guards fire. Mosaic ToCs have 1/4
 * unmapped codes. hugePfnOf gives the huge-mapped frame a `c` op
 * passes to accessHuge.
 */
class FuzzWalker final : public TranslationWalker
{
  public:
    explicit FuzzWalker(std::uint64_t pseed) : pseed_(pseed) {}

    std::optional<Pfn>
    pfnOf(Asid asid, Vpn v) override
    {
        if (mix(pseed_, 0x61, asid, v) % 8 == 0)
            return std::nullopt;
        const Vpn region = v / pagesPerHugePage;
        if (mix(pseed_, 0x66, asid, region) % 2 == 0) {
            if (mix(pseed_, 0x67, asid, v) % 16 == 0)
                return scattered(asid, v);
            return hugePfnOf(asid, v);
        }
        const Vpn block = v / 8;
        if (mix(pseed_, 0x63, asid, block) % 4 != 0) {
            // The whole block is physically contiguous.
            const Pfn base =
                ((mix(pseed_, 0x62, asid, block) & 0xFFFFF) + 1) * 8;
            return base + v % 8;
        }
        return scattered(asid, v);
    }

    /** The frame backing @p v under a 2 MiB mapping of its region. */
    Pfn
    hugePfnOf(Asid asid, Vpn v) const
    {
        const Vpn region = v / pagesPerHugePage;
        const Pfn base = ((mix(pseed_, 0x68, asid, region) & 0xFFFFF) + 1)
                         * pagesPerHugePage;
        return base + v % pagesPerHugePage;
    }

    void
    tocOf(Asid asid, Vpn vpn, unsigned arity,
          std::span<Cpfn> out) override
    {
        const Mvpn mvpn = vpn / arity;
        for (unsigned i = 0; i < arity; ++i) {
            const std::uint64_t m =
                mix(pseed_, 0x65, asid, (mvpn << 8) | i);
            out[i] = m % 4 == 0
                         ? unmappedCode()
                         : static_cast<Cpfn>((m >> 8) % 0x7F);
        }
    }

    Cpfn unmappedCode() const override { return 0x7F; }

  private:
    Pfn
    scattered(Asid asid, Vpn v) const
    {
        const std::uint64_t m = mix(pseed_, 0x64, asid, v);
        if (m % 32 == 0)
            return m & 0x7;
        if (m % 32 == 1)
            return m & 0x1FF;
        return m & 0xFFFFF;
    }

    std::uint64_t pseed_;
};

/**
 * Differential harness for every registry design kind. One registry
 * spec is assembled from the trace cfg (the cfg keys are the
 * registry's keys; entries/ways/arity are the defaults) and parsed
 * once; the real design (makeTranslationDesign) and its reference
 * model (makeOracleDesign) are both built from that DesignSpec.
 *
 * Before every access both sides' cached translation of the page
 * (contains) must agree; after every op, every metric
 * forEachDesignMetric emits must agree name by name. A `c` op reaches
 * accessHuge on the kinds with a huge-page policy and is skipped on
 * the rest, like every op the vocabulary does not know.
 */
class DesignHarness
{
  public:
    explicit DesignHarness(const Trace &t)
        : walker_(t.cfgUint("pseed", 7))
    {
        std::string text = t.cfgValue("kind", "vanilla");
        char sep = ':';
        for (const char *key :
             {"base", "mode", "degree", "ranges", "maxrun", "l1", "l2"}) {
            const std::string value = t.cfgValue(key, "");
            if (value.empty())
                continue;
            text += sep + std::string(key) + "=" + value;
            sep = ',';
        }
        const DesignParams defaults{
            TlbGeometry{static_cast<unsigned>(t.cfgUint("entries", 16)),
                        static_cast<unsigned>(t.cfgUint("ways", 2))},
            static_cast<unsigned>(t.cfgUint("arity", 4))};
        const Result<DesignSpec> spec = parseDesignSpec(text, defaults);
        if (!spec.ok())
            panic("fuzzer: design spec rejected: " +
                  spec.status().toString());
        kind_ = spec.value().kind;
        hugePolicy_ = kind_ == "vanilla" || kind_ == "mosaic";
        real_ = makeTranslationDesign(spec.value());
        oracle_ = makeOracleDesign(spec.value());
    }

    MaybeDivergence
    apply(const TraceOp &op, std::size_t idx, bool *applied, Digest &dg)
    {
        *applied = true;
        const Asid asid = static_cast<Asid>(op.arg(0));
        const Vpn vpn = op.arg(1);
        switch (op.kind) {
        case 'c':
            if (!hugePolicy_) {
                *applied = false;
                return std::nullopt;
            }
            [[fallthrough]];
        case 'l': {
            if (MaybeDivergence bad = compareTranslation(idx, asid, vpn, dg))
                return bad;
            bool r = false, o = false;
            if (op.kind == 'l') {
                r = real_->access(asid, vpn, walker_);
                o = oracle_->access(asid, vpn, walker_);
            } else {
                const Pfn pfn = walker_.hugePfnOf(asid, vpn);
                r = real_->accessHuge(asid, vpn, pfn);
                o = oracle_->accessHuge(asid, vpn, pfn);
            }
            dg.mix(static_cast<std::uint64_t>(op.kind));
            dg.mix(r ? 1 : 0);
            if (r != o) {
                return diverge(idx, kind_ + " design access" +
                    pageStr(asid, vpn) + ": real=" +
                    (r ? "hit" : "miss") + " oracle=" +
                    (o ? "hit" : "miss"));
            }
            break;
        }
        case 'i':
            real_->invalidatePage(asid, vpn);
            oracle_->invalidatePage(asid, vpn);
            dg.mix('i');
            break;
        case 'f':
            real_->flushAsid(asid);
            oracle_->flushAsid(asid);
            dg.mix('f');
            break;
        default:
            *applied = false;
            return std::nullopt;
        }
        return compareMetrics(idx);
    }

  private:
    using Metrics = std::vector<std::pair<const char *, double>>;

    MaybeDivergence
    compareTranslation(std::size_t idx, Asid asid, Vpn vpn, Digest &dg)
    {
        const std::optional<Pfn> r = real_->contains(asid, vpn);
        const std::optional<Pfn> o = oracle_->contains(asid, vpn);
        dg.mix(r ? *r + 1 : 0);
        if (r == o)
            return std::nullopt;
        const auto str = [](const std::optional<Pfn> &v) {
            return v ? std::to_string(*v) : std::string("none");
        };
        return diverge(idx, kind_ + " design translation" +
            pageStr(asid, vpn) + ": real=" + str(r) + " oracle=" +
            str(o));
    }

    template <typename Design>
    static void
    collect(const Design &design, Metrics &out)
    {
        out.clear();
        forEachDesignMetric(design, [&](const char *name, auto value) {
            out.emplace_back(name, static_cast<double>(value));
        });
    }

    MaybeDivergence
    compareMetrics(std::size_t idx)
    {
        collect(*real_, realMetrics_);
        collect(*oracle_, oracleMetrics_);
        ensure(realMetrics_.size() == oracleMetrics_.size(),
               "fuzzer: design metric lists differ in length");
        for (std::size_t i = 0; i < realMetrics_.size(); ++i) {
            const auto &[name, r] = realMetrics_[i];
            const double o = oracleMetrics_[i].second;
            if (r != o) {
                return diverge(idx, kind_ + " design " + name +
                    ": real=" + std::to_string(r) + " oracle=" +
                    std::to_string(o));
            }
        }
        return std::nullopt;
    }

    std::string kind_;
    bool hugePolicy_ = false;
    FuzzWalker walker_;
    std::unique_ptr<TranslationDesign> real_;
    std::unique_ptr<OracleDesign> oracle_;
    Metrics realMetrics_;
    Metrics oracleMetrics_;
};

} // namespace

void
runTlbTrace(const Trace &trace, Digest &dg, FuzzResult &res)
{
    // accessBatch's apply loop is the scalar access path itself;
    // there is no separate TLB engine to shadow.
    DesignHarness h(trace);
    drive(trace, h, dg, res);
}

/**
 * Traces for the four paper TLB kinds, at random geometries over a
 * universe of 8 pages per entry. Every kind gets lookups (`l`),
 * page invalidations (`i`) and ASID flushes (`f`); the kinds with a
 * huge-page policy (vanilla, mosaic) also get huge-mapped lookups
 * (`c`).
 */
Trace
generateTlb(Rng &rng, std::size_t numOps)
{
    Trace t;
    t.component = "tlb";
    static constexpr const char *kinds[] = {"vanilla", "mosaic",
                                            "coalesced", "perforated"};
    const unsigned kind = static_cast<unsigned>(rng.below(4));
    t.setCfg("kind", kinds[kind]);
    static constexpr unsigned entryOptions[] = {16, 32, 64};
    const unsigned entries = entryOptions[rng.below(3)];
    const unsigned wayOptions[] = {1, 2, 4, entries};
    const unsigned ways = wayOptions[rng.below(4)];
    t.setCfgUint("entries", entries);
    t.setCfgUint("ways", ways);
    static constexpr unsigned arityOptions[] = {2, 4, 8};
    t.setCfgUint("arity", arityOptions[rng.below(3)]);
    t.setCfgUint("pseed", rng());
    const std::uint64_t numAsids = 1 + rng.below(3);
    const std::uint64_t universe = std::uint64_t{entries} * 8;
    const bool huge = kind < 2;
    for (std::size_t i = 0; i < numOps; ++i) {
        TraceOp op;
        op.kind = huge ? "lcif"[rng.pickWeighted({0.74, 0.12, 0.08, 0.06})]
                       : "lif"[rng.pickWeighted({0.86, 0.08, 0.06})];
        op.nargs = 2;
        op.args[0] = 1 + rng.below(numAsids);
        op.args[1] = rng.below(universe);
        t.ops.push_back(op);
    }
    return t;
}

/**
 * Traces for the wrapper and range designs ("tlb-stride" / "tlb-pwc"
 * / "tlb-range" pseudo-components), with design-specific cfg.
 * Accesses follow a drifting strided cursor
 * most of the time (the pattern a stride prefetcher and a PWC reward)
 * with random jumps mixed in to break the runs.
 */
Trace
generateDesignTlb(Rng &rng, std::size_t numOps, const char *kind)
{
    Trace t;
    t.component = "tlb";
    t.setCfg("kind", kind);
    const bool range = std::string(kind) == "range";
    if (!range) {
        static constexpr unsigned entryOptions[] = {16, 32, 64};
        const unsigned entries = entryOptions[rng.below(3)];
        const unsigned wayOptions[] = {1, 2, 4, entries};
        t.setCfgUint("entries", entries);
        t.setCfgUint("ways", wayOptions[rng.below(4)]);
        t.setCfg("base", rng.chance(0.5) ? "mosaic" : "vanilla");
        static constexpr unsigned arityOptions[] = {2, 4, 8};
        t.setCfgUint("arity", arityOptions[rng.below(3)]);
    }
    if (std::string(kind) == "stride") {
        t.setCfg("mode", rng.chance(0.5) ? "arbitrary" : "fixed");
        t.setCfgUint("degree", 1 + rng.below(4));
    } else if (std::string(kind) == "pwc") {
        t.setCfgUint("l1", 4u << rng.below(3));
        t.setCfgUint("l2", 2u << rng.below(3));
    } else if (range) {
        t.setCfgUint("ranges", 4 + rng.below(28));
        static constexpr unsigned runOptions[] = {8, 64, 512};
        t.setCfgUint("maxrun", runOptions[rng.below(3)]);
    }
    t.setCfgUint("pseed", rng());

    const std::uint64_t numAsids = 1 + rng.below(3);
    const std::uint64_t universe = 512;
    std::uint64_t cursor = rng.below(universe);
    std::uint64_t stride = 1 + rng.below(4);
    for (std::size_t i = 0; i < numOps; ++i) {
        TraceOp op;
        op.kind = "lif"[rng.pickWeighted({0.86, 0.08, 0.06})];
        op.nargs = 2;
        op.args[0] = 1 + rng.below(numAsids);
        if (op.kind == 'l') {
            if (rng.chance(0.65)) {
                cursor = (cursor + stride) % universe;
            } else if (rng.chance(0.4)) {
                cursor = rng.below(universe);
                stride = 1 + rng.below(4);
            } else {
                op.args[1] = rng.below(universe);
                t.ops.push_back(op);
                continue;
            }
            op.args[1] = cursor;
        } else {
            op.args[1] = rng.below(universe);
        }
        t.ops.push_back(op);
    }
    return t;
}

} // namespace mosaic::fuzz
