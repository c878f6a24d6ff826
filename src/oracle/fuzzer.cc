#include "oracle/fuzzer.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/fault.hh"
#include "mem/geometry.hh"
#include "oracle/oracle_designs.hh"
#include "oracle/oracle_tlb.hh"
#include "oracle/oracle_vm.hh"
#include "oracle/shard_oracle.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "os/sharded_vm.hh"
#include "tlb/coalesced_tlb.hh"
#include "tlb/design_registry.hh"
#include "tlb/mosaic_tlb.hh"
#include "tlb/perforated_tlb.hh"
#include "tlb/translation_design.hh"
#include "tlb/vanilla_tlb.hh"
#include "util/log.hh"
#include "util/random.hh"
#include "workloads/access_sink.hh"
#include "workloads/kv_server.hh"
#include "workloads/scan_analytics.hh"
#include "workloads/warp.hh"
#include "workloads/web_session.hh"

namespace mosaic
{

namespace
{

// ----------------------------------------------------------- helpers

/** FNV-1a accumulator over 64-bit words. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        h ^= v;
        h *= 1099511628211ull;
    }
};

/** splitmix64-style finalizer: the pure mixing primitive every
 *  derived payload is built from, so fill values depend only on the
 *  trace, never on ambient state. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    return mix64(a ^ mix64(b));
}

std::uint64_t
mix(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return mix64(mix(a, b) ^ mix64(c));
}

std::uint64_t
mix(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d)
{
    return mix64(mix(a, b, c) ^ mix64(d));
}

using MaybeDivergence = std::optional<FuzzDivergence>;

MaybeDivergence
diverge(std::size_t idx, std::string msg)
{
    return FuzzDivergence{idx, std::move(msg)};
}

std::string
pageStr(Asid asid, Vpn vpn)
{
    return "(" + std::to_string(asid) + "," + std::to_string(vpn) + ")";
}

// -------------------------------------------------------- tlb harness

class TlbHarness
{
  public:
    explicit TlbHarness(const Trace &t)
        : kind_(t.cfgValue("kind", "vanilla")),
          geometry_{static_cast<unsigned>(t.cfgUint("entries", 16)),
                    static_cast<unsigned>(t.cfgUint("ways", 2))},
          arity_(static_cast<unsigned>(t.cfgUint("arity", 4))),
          pseed_(t.cfgUint("pseed", 7))
    {
        if (kind_ == "vanilla") {
            vReal_ = std::make_unique<VanillaTlb>(geometry_);
            vOracle_ = std::make_unique<OracleVanillaTlb>(geometry_);
        } else if (kind_ == "mosaic") {
            mReal_ = std::make_unique<MosaicTlb>(geometry_, arity_);
            mOracle_ = std::make_unique<OracleMosaicTlb>(geometry_, arity_);
        } else if (kind_ == "coalesced") {
            cReal_ = std::make_unique<CoalescedTlb>(geometry_);
            cOracle_ = std::make_unique<OracleCoalescedTlb>(geometry_);
        } else if (kind_ == "perforated") {
            pReal_ = std::make_unique<PerforatedTlb>(geometry_);
            pOracle_ = std::make_unique<OraclePerforatedTlb>(geometry_);
        } else {
            panic("fuzzer: unknown tlb kind '" + kind_ + "'");
        }
    }

    MaybeDivergence
    apply(const TraceOp &op, std::size_t idx, bool *applied, Digest &dg)
    {
        *applied = true;
        const Asid asid = static_cast<Asid>(op.arg(0));
        const Vpn vpn = op.arg(1);
        MaybeDivergence bad;
        if (kind_ == "vanilla")
            bad = applyVanilla(op, idx, asid, vpn, applied, dg);
        else if (kind_ == "mosaic")
            bad = applyMosaic(op, idx, asid, vpn, applied, dg);
        else if (kind_ == "coalesced")
            bad = applyCoalesced(op, idx, asid, vpn, applied, dg);
        else
            bad = applyPerforated(op, idx, asid, vpn, applied, dg);
        if (bad || !*applied)
            return bad;
        return compareCounters(idx);
    }

  private:
    // Derived fill payloads: pure functions of (pseed, asid, address),
    // so the real TLB and the oracle are always fed identical data and
    // traces need no payload fields.
    bool
    vanillaHuge(Asid asid, Vpn vpn) const
    {
        return mix(pseed_, 0x11, asid, vpn >> 9) % 8 == 0;
    }

    Pfn
    vanillaHugeBase(Asid asid, Vpn vpn) const
    {
        return (mix(pseed_, 0x12, asid, vpn >> 9) & 0xFFFFF) << 9;
    }

    Pfn
    vanilla4k(Asid asid, Vpn vpn) const
    {
        return mix(pseed_, 0x13, asid, vpn) & 0xFFFFFFF;
    }

    static constexpr Cpfn tocUnmapped = 0x7F;

    Cpfn
    tocEntry(Asid asid, Mvpn mvpn, unsigned sub) const
    {
        const std::uint64_t m =
            mix(pseed_, 0x21, asid, (mvpn << 8) | sub);
        if (m % 4 == 0)
            return tocUnmapped;
        return static_cast<Cpfn>((m >> 8) % 0x7F);
    }

    std::optional<Pfn>
    coalescedFrameOf(Asid asid, Vpn v) const
    {
        if (mix(pseed_, 0x31, asid, v) % 8 == 0)
            return std::nullopt; // unmapped neighbour
        const Vpn group = v / CoalescedTlb::coalesceFactor;
        const unsigned off =
            static_cast<unsigned>(v % CoalescedTlb::coalesceFactor);
        if (mix(pseed_, 0x33, asid, v) % 4 != 0) {
            // Physically contiguous with the group's base run.
            const Pfn base =
                ((mix(pseed_, 0x32, asid, group) & 0xFFFFF) + 1) *
                CoalescedTlb::coalesceFactor;
            return base + off;
        }
        // Scattered; occasionally tiny, to exercise the pfn < off
        // underflow guard in the mask builder.
        const std::uint64_t m = mix(pseed_, 0x34, asid, v);
        if (m % 32 == 0)
            return m & 0x7;
        return m & 0xFFFFF;
    }

    bool
    perforatedHole(Asid asid, Vpn v) const
    {
        return mix(pseed_, 0x41, asid, v) % 8 == 0;
    }

    Pfn
    perforatedBase(Asid asid, Vpn region) const
    {
        return (mix(pseed_, 0x42, asid, region) & 0xFFFFF) << 9;
    }

    Pfn
    perforated4k(Asid asid, Vpn v) const
    {
        return mix(pseed_, 0x43, asid, v) & 0xFFFFFFF;
    }

    template <typename A, typename B>
    MaybeDivergence
    compareLookup(std::size_t idx, const A &r, const B &o, Digest &dg)
    {
        dg.mix('l');
        dg.mix(r ? static_cast<std::uint64_t>(*r) + 1 : 0);
        if (r.has_value() != o.has_value() || (r && *r != *o)) {
            return diverge(idx, kind_ + " tlb lookup result mismatch "
                "(real vs oracle)");
        }
        return std::nullopt;
    }

    MaybeDivergence
    applyVanilla(const TraceOp &op, std::size_t idx, Asid asid, Vpn vpn,
                 bool *applied, Digest &dg)
    {
        switch (op.kind) {
        case 'l': {
            const auto r = vReal_->lookup(asid, vpn);
            const auto o = vOracle_->lookup(asid, vpn);
            if (auto bad = compareLookup(idx, r, o, dg))
                return bad;
            if (!r) {
                if (vanillaHuge(asid, vpn)) {
                    const Pfn base = vanillaHugeBase(asid, vpn);
                    vReal_->fillHuge(asid, vpn, base);
                    vOracle_->fillHuge(asid, vpn, base);
                } else {
                    const Pfn pfn = vanilla4k(asid, vpn);
                    vReal_->fill(asid, vpn, pfn);
                    vOracle_->fill(asid, vpn, pfn);
                }
            }
            break;
        }
        case 'i':
            vReal_->invalidate(asid, vpn);
            vOracle_->invalidate(asid, vpn);
            dg.mix('i');
            break;
        case 'f':
            vReal_->flushAsid(asid);
            vOracle_->flushAsid(asid);
            dg.mix('f');
            break;
        default:
            *applied = false;
        }
        return std::nullopt;
    }

    MaybeDivergence
    applyMosaic(const TraceOp &op, std::size_t idx, Asid asid, Vpn vpn,
                bool *applied, Digest &dg)
    {
        switch (op.kind) {
        case 'l': {
            const auto r = mReal_->lookup(asid, vpn);
            const auto o = mOracle_->lookup(asid, vpn);
            if (auto bad = compareLookup(idx, r, o, dg))
                return bad;
            if (!r) {
                std::array<Cpfn, maxArity> toc{};
                const Mvpn mvpn = mReal_->mvpnOf(vpn);
                for (unsigned i = 0; i < arity_; ++i)
                    toc[i] = tocEntry(asid, mvpn, i);
                const std::span<const Cpfn> span(toc.data(), arity_);
                mReal_->fill(asid, vpn, span, tocUnmapped);
                mOracle_->fill(asid, vpn, span, tocUnmapped);
            }
            break;
        }
        case 'c': {
            const auto r = mReal_->lookupConventional(asid, vpn);
            const auto o = mOracle_->lookupConventional(asid, vpn);
            if (auto bad = compareLookup(idx, r, o, dg))
                return bad;
            if (!r) {
                const Pfn pfn = mix(pseed_, 0x22, asid, vpn) & 0xFFFFFFF;
                mReal_->fillConventional(asid, vpn, pfn);
                mOracle_->fillConventional(asid, vpn, pfn);
            }
            break;
        }
        case 'i':
            mReal_->invalidateSub(asid, vpn);
            mOracle_->invalidateSub(asid, vpn);
            dg.mix('i');
            break;
        case 'e':
            mReal_->invalidateEntry(asid, vpn);
            mOracle_->invalidateEntry(asid, vpn);
            dg.mix('e');
            break;
        case 'f':
            mReal_->flushAsid(asid);
            mOracle_->flushAsid(asid);
            dg.mix('f');
            break;
        default:
            *applied = false;
        }
        return std::nullopt;
    }

    MaybeDivergence
    applyCoalesced(const TraceOp &op, std::size_t idx, Asid asid, Vpn vpn,
                   bool *applied, Digest &dg)
    {
        switch (op.kind) {
        case 'l': {
            const auto r = cReal_->lookup(asid, vpn);
            const auto o = cOracle_->lookup(asid, vpn);
            if (auto bad = compareLookup(idx, r, o, dg))
                return bad;
            if (!r) {
                const std::optional<Pfn> self = coalescedFrameOf(asid, vpn);
                if (self) {
                    const auto pfn_of = [&](Vpn v) {
                        return coalescedFrameOf(asid, v);
                    };
                    cReal_->fill(asid, vpn, *self, pfn_of);
                    cOracle_->fill(asid, vpn, *self, pfn_of);
                }
            }
            break;
        }
        case 'i':
            cReal_->invalidate(asid, vpn);
            cOracle_->invalidate(asid, vpn);
            dg.mix('i');
            break;
        default:
            *applied = false;
        }
        return std::nullopt;
    }

    MaybeDivergence
    applyPerforated(const TraceOp &op, std::size_t idx, Asid asid,
                    Vpn vpn, bool *applied, Digest &dg)
    {
        if (op.kind != 'l') {
            *applied = false;
            return std::nullopt;
        }
        const auto r = pReal_->lookup(asid, vpn);
        const auto o = pOracle_->lookup(asid, vpn);
        if (auto bad = compareLookup(idx, r, o, dg))
            return bad;
        if (!r) {
            if (pOracle_->hasPerforatedEntry(asid, vpn)) {
                // The region entry is cached, so this miss was a hole:
                // cache the hole page's own 4 KiB translation.
                const Pfn pfn = perforated4k(asid, vpn);
                pReal_->fill4k(asid, vpn, pfn);
                pOracle_->fill4k(asid, vpn, pfn);
            } else {
                const Vpn region = vpn >> 9;
                HoleBitmap holes{};
                for (unsigned off = 0; off < pagesPerHugePage; ++off) {
                    if (perforatedHole(asid, (region << 9) | off))
                        setHole(holes, off);
                }
                const Pfn base = perforatedBase(asid, region);
                pReal_->fillPerforated(asid, vpn, base, holes);
                pOracle_->fillPerforated(asid, vpn, base, holes);
                if (perforatedHole(asid, vpn)) {
                    const Pfn pfn = perforated4k(asid, vpn);
                    pReal_->fill4k(asid, vpn, pfn);
                    pOracle_->fill4k(asid, vpn, pfn);
                }
            }
        }
        return std::nullopt;
    }

    MaybeDivergence
    compareCounters(std::size_t idx)
    {
        TlbStats r, o;
        unsigned rValid = 0, oValid = 0;
        if (kind_ == "vanilla") {
            r = vReal_->stats();
            o = vOracle_->stats();
            rValid = vReal_->validEntries();
            oValid = vOracle_->validEntries();
        } else if (kind_ == "mosaic") {
            r = mReal_->stats();
            o = mOracle_->stats();
            rValid = mReal_->validEntries();
            oValid = mOracle_->validEntries();
        } else if (kind_ == "coalesced") {
            r = cReal_->stats();
            o = cOracle_->stats();
            rValid = cReal_->validEntries();
            oValid = cOracle_->validEntries();
            if (cReal_->pagesCoveredByFills() !=
                        cOracle_->pagesCoveredByFills() ||
                    cReal_->coalescedFills() != cOracle_->coalescedFills())
                return diverge(idx, "coalesced tlb coverage counters "
                    "disagree with oracle");
        } else {
            r = pReal_->stats();
            o = pOracle_->stats();
            rValid = pReal_->validEntries();
            oValid = pOracle_->validEntries();
            if (pReal_->holeLookups() != pOracle_->holeLookups())
                return diverge(idx, "perforated tlb holeLookups "
                    "disagree with oracle");
        }
        if (rValid != oValid) {
            return diverge(idx, kind_ + " tlb validEntries: real=" +
                std::to_string(rValid) + " oracle=" +
                std::to_string(oValid));
        }
        const auto neq = [](std::uint64_t a, std::uint64_t b) {
            return a != b;
        };
        if (neq(r.accesses, o.accesses) || neq(r.hits, o.hits) ||
                neq(r.misses, o.misses) ||
                neq(r.subEntryFills, o.subEntryFills) ||
                neq(r.evictions, o.evictions) ||
                neq(r.invalidations, o.invalidations)) {
            return diverge(idx, kind_ + " tlb stats counter "
                "disagrees with oracle");
        }
        return std::nullopt;
    }

    std::string kind_;
    TlbGeometry geometry_;
    unsigned arity_;
    std::uint64_t pseed_;

    std::unique_ptr<VanillaTlb> vReal_;
    std::unique_ptr<OracleVanillaTlb> vOracle_;
    std::unique_ptr<MosaicTlb> mReal_;
    std::unique_ptr<OracleMosaicTlb> mOracle_;
    std::unique_ptr<CoalescedTlb> cReal_;
    std::unique_ptr<OracleCoalescedTlb> cOracle_;
    std::unique_ptr<PerforatedTlb> pReal_;
    std::unique_ptr<OraclePerforatedTlb> pOracle_;
};

// ----------------------------------------------- design harness (§14)

/**
 * Deterministic page tables for the pluggable-design harness: one
 * TranslationWalker whose answers are pure functions of (pseed, asid,
 * page), shared by the real design and its oracle so both always see
 * identical walk results. The pfn layout mixes contiguous 8-page runs
 * (3/4 of mapped blocks) with scattered frames and 1/8 unmapped pages
 * — enough structure for the range miner and the coalescer to find
 * runs, enough noise to break them.
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
        const Vpn block = v / 8;
        const unsigned off = static_cast<unsigned>(v % 8);
        if (mix(pseed_, 0x63, asid, block) % 4 != 0) {
            // The whole block is physically contiguous.
            const Pfn base =
                ((mix(pseed_, 0x62, asid, block) & 0xFFFFF) + 1) * 8;
            return base + off;
        }
        return mix(pseed_, 0x64, asid, v) & 0xFFFFF;
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
    std::uint64_t pseed_;
};

/**
 * Differential harness for the registry-built designs (stride, pwc,
 * range): the real side is constructed THROUGH makeTranslationDesign
 * — so every fuzz run also exercises the registry's spec round trip —
 * and compared against the recency-list oracle design after every op:
 * hit/miss result, all TlbStats counters, valid entries, measured
 * reach, and every DesignCounters field (walk cost, PWC hits,
 * prefetch accounting, region fills).
 */
class DesignHarness
{
  public:
    explicit DesignHarness(const Trace &t)
        : walker_(t.cfgUint("pseed", 7))
    {
        OracleDesignSpec spec;
        spec.kind = t.cfgValue("kind", "stride");
        spec.base = t.cfgValue("base", "vanilla");
        spec.geometry = {static_cast<unsigned>(t.cfgUint("entries", 16)),
                         static_cast<unsigned>(t.cfgUint("ways", 2))};
        spec.arity = static_cast<unsigned>(t.cfgUint("arity", 4));
        spec.arbitrary = t.cfgValue("mode", "fixed") == "arbitrary";
        spec.degree = static_cast<unsigned>(t.cfgUint("degree", 2));
        spec.ranges = static_cast<unsigned>(t.cfgUint("ranges", 32));
        spec.maxRun = t.cfgUint("maxrun", 512);
        spec.l1 = static_cast<unsigned>(t.cfgUint("l1", 16));
        spec.l2 = static_cast<unsigned>(t.cfgUint("l2", 8));
        kind_ = spec.kind;
        oracle_ = makeOracleDesign(spec);

        std::string rspec;
        if (spec.kind == "range") {
            rspec = "range:ranges=" + std::to_string(spec.ranges) +
                    ",maxrun=" + std::to_string(spec.maxRun);
        } else {
            rspec = spec.kind + ":base=" + spec.base +
                    ",entries=" + std::to_string(spec.geometry.entries) +
                    ",ways=" + std::to_string(spec.geometry.ways) +
                    ",arity=" + std::to_string(spec.arity);
            if (spec.kind == "stride") {
                rspec += std::string(",mode=") +
                         (spec.arbitrary ? "arbitrary" : "fixed") +
                         ",degree=" + std::to_string(spec.degree);
            } else {
                rspec += ",l1=" + std::to_string(spec.l1) +
                         ",l2=" + std::to_string(spec.l2);
            }
        }
        Result<std::unique_ptr<TranslationDesign>> built =
            makeTranslationDesign(rspec);
        if (!built.ok())
            panic("fuzzer: design spec rejected: " +
                  built.status().toString());
        real_ = std::move(built.value());
    }

    MaybeDivergence
    apply(const TraceOp &op, std::size_t idx, bool *applied, Digest &dg)
    {
        *applied = true;
        const Asid asid = static_cast<Asid>(op.arg(0));
        const Vpn vpn = op.arg(1);
        switch (op.kind) {
        case 'l': {
            const bool r = real_->access(asid, vpn, walker_);
            const bool o = oracle_->access(asid, vpn, walker_);
            dg.mix('l');
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
        return compareState(idx);
    }

  private:
    MaybeDivergence
    compareState(std::size_t idx)
    {
        const TlbStats &r = real_->stats();
        const TlbStats &o = oracle_->stats();
        if (r.accesses != o.accesses || r.hits != o.hits ||
                r.misses != o.misses ||
                r.subEntryFills != o.subEntryFills ||
                r.evictions != o.evictions ||
                r.invalidations != o.invalidations) {
            return diverge(idx, kind_ + " design stats counter "
                "disagrees with oracle");
        }
        if (real_->validEntries() != oracle_->validEntries()) {
            return diverge(idx, kind_ + " design validEntries: real=" +
                std::to_string(real_->validEntries()) + " oracle=" +
                std::to_string(oracle_->validEntries()));
        }
        if (real_->reachPages() != oracle_->reachPages()) {
            return diverge(idx, kind_ + " design reachPages: real=" +
                std::to_string(real_->reachPages()) + " oracle=" +
                std::to_string(oracle_->reachPages()));
        }
        const DesignCounters rc = real_->counters();
        const DesignCounters oc = oracle_->counters();
        if (rc.walkRefs != oc.walkRefs ||
                rc.pwcLookups != oc.pwcLookups ||
                rc.pwcHits != oc.pwcHits ||
                rc.prefetchesIssued != oc.prefetchesIssued ||
                rc.prefetchFills != oc.prefetchFills ||
                rc.regionFills != oc.regionFills) {
            return diverge(idx, kind_ + " design walk/helper counter "
                "disagrees with oracle");
        }
        return std::nullopt;
    }

    std::string kind_;
    FuzzWalker walker_;
    std::unique_ptr<TranslationDesign> real_;
    std::unique_ptr<OracleDesign> oracle_;
};

/** Kinds the DesignHarness owns (the rest stay with TlbHarness). */
bool
designKind(const std::string &kind)
{
    return kind == "stride" || kind == "pwc" || kind == "range";
}

// --------------------------------------------------------- vm harness

/** Trace -> LinuxVmConfig. Shared by the harness and the batched
 *  pipeline shadow so both paths build identical instances. */
LinuxVmConfig
linuxVmCfgFromTrace(const Trace &t, fault::FaultInjector *faults)
{
    LinuxVmConfig cfg;
    cfg.numFrames = t.cfgUint("frames", 128);
    cfg.watermarkFraction =
        static_cast<double>(t.cfgUint("watermark_ppm", 8000)) / 1e6;
    cfg.reclaimBatch = static_cast<unsigned>(t.cfgUint("batch", 32));
    cfg.faults = faults;
    return cfg;
}

/** Trace -> MosaicVmConfig (see linuxVmCfgFromTrace). */
MosaicVmConfig
mosaicVmCfgFromTrace(const Trace &t, fault::FaultInjector *faults)
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
    cfg.seed = t.cfgUint("seed", 12345);
    cfg.faults = faults;
    cfg.shrinkDelta =
        static_cast<double>(t.cfgUint("shrink_ppm", 20000)) / 1e6;
    cfg.sharing = t.cfgValue("sharing", "pageid") == "locid"
                      ? SharingMode::LocationId
                      : SharingMode::PageIdHash;
    const std::string policy = t.cfgValue("policy", "horizon");
    if (policy == "horizon")
        cfg.policy = EvictionPolicy::HorizonLru;
    else if (policy == "local")
        cfg.policy = EvictionPolicy::LocalLru;
    else
        cfg.policy = EvictionPolicy::ShrunkenCache;
    return cfg;
}

class VmHarness
{
  public:
    explicit VmHarness(const Trace &t,
                       fault::FaultInjector *faults = nullptr)
        : kind_(t.cfgValue("kind", "mosaic")),
          deep_(t.cfgUint("deep", 512))
    {
        if (kind_ == "linux") {
            const LinuxVmConfig cfg = linuxVmCfgFromTrace(t, faults);
            lvm_ = std::make_unique<LinuxVm>(cfg);
            OracleVmConfig ocfg;
            ocfg.numFrames = cfg.numFrames;
            ocfg.watermarkFraction = cfg.watermarkFraction;
            ocfg.reclaimBatch = cfg.reclaimBatch;
            lOracle_ = std::make_unique<OracleVm>(ocfg);
            return;
        }
        ensure(kind_ == "mosaic", "fuzzer: unknown vm kind");
        const MosaicVmConfig cfg = mosaicVmCfgFromTrace(t, faults);
        locMode_ = cfg.sharing == SharingMode::LocationId;
        policy_ = cfg.policy;
        arity_ = cfg.arity;
        log2Arity_ = ceilLog2(arity_);
        mvm_ = std::make_unique<MosaicVm>(cfg);
        numFrames_ = cfg.geometry.numFrames;
        usedPre_.resize(numFrames_);
        dirtyPre_.resize(numFrames_);
        lastAccessPre_.resize(numFrames_);
        ownerPre_.resize(numFrames_);
        if (!locMode_ && policy_ == EvictionPolicy::HorizonLru)
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
    using TocKeyM = std::pair<Asid, Mvpn>;
    using SlotId = std::pair<std::uint64_t, unsigned>;

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
            ownerPre_[p] = f.owner;
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

    Vpn
    vpnOfToc(const TocKeyM &key, unsigned sub) const
    {
        return (key.second << log2Arity_) | sub;
    }

    /** Walk one page of the real mosaic page tables. */
    bool
    walkPresent(Asid asid, Vpn vpn)
    {
        return mvm_->pageTable(asid).walk(vpn).present;
    }

    /** Post-op mirror sweep: detect evictions (a bound page that went
     *  absent outside @p expectedAbsent was evicted) and track
     *  residency. A dirty eviction writes a swap copy; a clean one
     *  leaves whatever copy state the slot already had (the copy a
     *  clean page was read from usually persists, but a peer ToC's
     *  unmap may have invalidated it while the frame lived on). */
    void
    sweepMirror(const std::set<PageId> &expectedAbsent)
    {
        for (auto &[key, group] : boundGroup_) {
            for (unsigned sub = 0; sub < arity_; ++sub) {
                const PageId page{key.first, vpnOfToc(key, sub)};
                const bool now = walkPresent(page.asid, page.vpn);
                const bool before = prevPresent_[page];
                if (before && !now && !expectedAbsent.contains(page)) {
                    if (slotFrameWasDirty(group, sub))
                        slotSwap_[SlotId{group, sub}] = true;
                }
                prevPresent_[page] = now;
            }
        }
    }

    /** Dirty bit, at the start of the current op, of the frame that
     *  backed slot (group, sub). The frame's owner is whichever group
     *  member faulted it in, so it is found by owner scan. */
    bool
    slotFrameWasDirty(std::uint64_t group, unsigned sub) const
    {
        const auto &members = groups_.at(group);
        for (Pfn p = 0; p < numFrames_; ++p) {
            if (!usedPre_[p])
                continue;
            for (const TocKeyM &peer : members) {
                if (ownerPre_[p] ==
                        PageId{peer.first, vpnOfToc(peer, sub)})
                    return dirtyPre_[p];
            }
        }
        return false;
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
        case 's':
            bad = mosaicShare(op, idx, applied, dg);
            break;
        default:
            *applied = false;
            return std::nullopt;
        }
        if (bad || !*applied)
            return bad;
        if (locMode_ && op.kind == 't') {
            // Record evictions the touch caused (a bound page that
            // went absent must now have a swap copy) before the next
            // op's expectations are computed.
            sweepMirror({});
        }
        if (locMode_) {
            if (mvm_->locationBindings() != boundGroup_.size()) {
                return diverge(idx, "mosaic bindings: real=" +
                    std::to_string(mvm_->locationBindings()) +
                    " mirror=" + std::to_string(boundGroup_.size()));
            }
            if (mvm_->locationUsers() != mvm_->locationBindings()) {
                return diverge(idx, "mosaic location user lists out of "
                    "sync with bindings");
            }
        }
        if (policy_ != EvictionPolicy::HorizonLru &&
                mvm_->ghostPages() != 0) {
            return diverge(idx, "mosaic: ghost pages under a policy "
                "that never raises the horizon");
        }
        if (deep_ > 0 && (idx + 1) % deep_ == 0)
            return deepCheckMosaic(idx);
        return std::nullopt;
    }

    /** Bind a ToC in the mirror if needed (mirrors locationIdFor). */
    void
    mirrorBind(const TocKeyM &key)
    {
        if (!boundGroup_.contains(key)) {
            const std::uint64_t g = nextGroup_++;
            boundGroup_.emplace(key, g);
            groups_[g].push_back(key);
        }
    }

    MaybeDivergence
    mosaicTouch(const TraceOp &op, std::size_t idx, Digest &dg)
    {
        const Asid asid = static_cast<Asid>(op.arg(0));
        const Vpn vpn = op.arg(1);
        const bool write = op.arg(2) != 0;
        snapshotPre();

        const TocKeyM key{asid, vpn >> log2Arity_};
        const unsigned sub = static_cast<unsigned>(vpn & (arity_ - 1));
        const bool ownPresent = walkPresent(asid, vpn);

        bool aliasPresent = false;
        if (locMode_ && !ownPresent) {
            if (const auto it = boundGroup_.find(key);
                    it != boundGroup_.end()) {
                for (const TocKeyM &peer : groups_.at(it->second)) {
                    if (peer == key)
                        continue;
                    if (walkPresent(peer.first, vpnOfToc(peer, sub))) {
                        aliasPresent = true;
                        break;
                    }
                }
            }
        }

        // PageIdHash mode: re-derive the exact placement decision from
        // the public allocator before the touch mutates anything.
        bool predicted = false;
        bool predMajor = false;
        Pfn predPfn = invalidPfn;
        std::uint64_t predConflicts = 0, predGhostEvicts = 0,
                      predSwapOuts = 0;
        Tick predHorizon = horizonPre_;
        std::int64_t predGhostDelta = 0, predResidentDelta = 0;
        std::optional<PageId> predVictim;
        if (!locMode_ && !ownPresent &&
                policy_ != EvictionPolicy::ShrunkenCache) {
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
        if (locMode_)
            mirrorBind(key);
        else if (recency_)
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

        if (ownPresent || aliasPresent) {
            // Hit or sharer adoption: no allocation happened, so ghost
            // count may only move by rescuing this very frame.
            const bool wasGhost = wasGhostPre(pfn);
            const std::int64_t expRescue = wasGhost ? 1 : 0;
            if (dConflicts != 0 || dGhostEvicts != 0 || dSwapOuts != 0 ||
                    dSwapIns != 0 || dMajor != 0 || dResident != 0) {
                return diverge(idx, "mosaic " +
                    std::string(ownPresent ? "hit" : "adoption") + " of " +
                    pageStr(asid, vpn) + " changed allocation counters");
            }
            if (dMinor != (ownPresent ? 0 : 1)) {
                return diverge(idx, "mosaic " +
                    std::string(ownPresent ? "hit" : "adoption") + " of " +
                    pageStr(asid, vpn) + ": unexpected minor faults");
            }
            if (mvm_->horizon() != horizonPre_) {
                return diverge(idx, "mosaic hit/adoption raised the "
                    "horizon");
            }
            if (dGhosts != -expRescue || dRescues != expRescue) {
                return diverge(idx, "mosaic " +
                    std::string(ownPresent ? "hit" : "adoption") + " of " +
                    pageStr(asid, vpn) + (wasGhost
                        ? " on a ghost frame: ghostPages moved by " +
                          std::to_string(dGhosts) + " but ghostRescues "
                          "moved by " + std::to_string(dRescues)
                        : " on a live frame changed ghost accounting"));
            }
            const bool expDirty = dirtyPre_[pfn] || write;
            if (f.dirty != expDirty) {
                return diverge(idx, "mosaic hit/adoption dirty bit "
                    "mismatch");
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

        // PageIdHash mode: the exact set of frames and swap copies the
        // unmap must release is knowable up front.
        std::int64_t predFreed = 0, predGhostsFreed = 0, predSwapDrop = 0;
        if (!locMode_) {
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t hin =
                    packPageId(PageId{asid, vpn + i});
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
        }

        // LocationId mode: which slots the unmap covers, and which
        // ToCs may lose their binding, mirrors unmapRange exactly.
        std::set<SlotId> coveredSlots;
        std::set<PageId> coveredPages;
        std::set<TocKeyM> affected;
        if (locMode_) {
            for (std::size_t i = 0; i < n; ++i) {
                const Vpn v = vpn + i;
                const TocKeyM key{asid, v >> log2Arity_};
                const auto it = boundGroup_.find(key);
                if (it == boundGroup_.end())
                    continue;
                const unsigned sub =
                    static_cast<unsigned>(v & (arity_ - 1));
                coveredSlots.insert(SlotId{it->second, sub});
                for (const TocKeyM &peer : groups_.at(it->second)) {
                    affected.insert(peer);
                    coveredPages.insert(
                        PageId{peer.first, vpnOfToc(peer, sub)});
                }
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
        if (!locMode_) {
            if (dResident != -predFreed) {
                return diverge(idx, "mosaic unmap freed " +
                    std::to_string(-dResident) + " frames, expected " +
                    std::to_string(predFreed));
            }
            if (dGhosts != -predGhostsFreed) {
                return diverge(idx, "mosaic unmap ghost accounting: "
                    "moved " + std::to_string(dGhosts) + ", expected " +
                    std::to_string(-predGhostsFreed));
            }
            if (dSwap != -predSwapDrop) {
                return diverge(idx, "mosaic unmap dropped " +
                    std::to_string(-dSwap) + " swap copies, expected " +
                    std::to_string(predSwapDrop));
            }
        } else {
            if (dResident > 0 || dSwap > 0) {
                return diverge(idx, "mosaic unmap grew resident or "
                    "swap population");
            }
            std::int64_t expSwapDrop = 0;
            for (const SlotId &slot : coveredSlots) {
                if (slotSwap_[slot])
                    ++expSwapDrop;
                slotSwap_[slot] = false;
            }
            if (dSwap != -expSwapDrop) {
                return diverge(idx, "mosaic unmap dropped " +
                    std::to_string(-dSwap) + " swap copies, slot mirror "
                    "expected " + std::to_string(expSwapDrop));
            }
            sweepMirror(coveredPages);
            // Binding-death mirror of releaseBindingIfDead: a ToC's
            // binding survives iff any of its pages is still mapped or
            // any of its group's slots still has a swap copy.
            for (const TocKeyM &key : affected) {
                const auto it = boundGroup_.find(key);
                if (it == boundGroup_.end())
                    continue;
                const std::uint64_t g = it->second;
                bool alive = false;
                for (unsigned sub = 0; sub < arity_ && !alive; ++sub) {
                    if (walkPresent(key.first, vpnOfToc(key, sub)) ||
                            slotSwap_[SlotId{g, sub}])
                        alive = true;
                }
                if (alive)
                    continue;
                auto &members = groups_.at(g);
                std::erase(members, key);
                if (members.empty())
                    groups_.erase(g);
                boundGroup_.erase(it);
                for (unsigned sub = 0; sub < arity_; ++sub)
                    prevPresent_.erase(
                        PageId{key.first, vpnOfToc(key, sub)});
            }
        }
        return std::nullopt;
    }

    MaybeDivergence
    mosaicShare(const TraceOp &op, std::size_t idx, bool *applied,
                Digest &dg)
    {
        const Asid sa = static_cast<Asid>(op.arg(0));
        const Vpn sv = op.arg(1);
        const Asid da = static_cast<Asid>(op.arg(2));
        const Vpn dv = op.arg(3);
        const std::size_t n = op.arg(4);

        // Deterministic validity rules; an invalid share is skipped so
        // that every subsequence of a trace replays identically.
        bool valid = locMode_ && sa != da && n > 0 && n % arity_ == 0 &&
                     (sv & (arity_ - 1)) == 0 && (dv & (arity_ - 1)) == 0;
        for (std::size_t i = 0; valid && i < n; i += arity_) {
            if (boundGroup_.contains(
                    TocKeyM{da, (dv + i) >> log2Arity_}))
                valid = false;
        }
        if (!valid) {
            *applied = false;
            return std::nullopt;
        }
        snapshotPre();
        mvm_->shareRange(sa, sv, da, dv, n);
        dg.mix('s');
        dg.mix(mix(sa, sv, da, dv));

        for (std::size_t i = 0; i < n; i += arity_) {
            const TocKeyM src{sa, (sv + i) >> log2Arity_};
            const TocKeyM dst{da, (dv + i) >> log2Arity_};
            mirrorBind(src);
            const std::uint64_t g = boundGroup_.at(src);
            boundGroup_.emplace(dst, g);
            groups_[g].push_back(dst);
        }

        for (std::size_t i = 0; i < n; ++i) {
            const MosaicWalkResult src =
                mvm_->pageTable(sa).walk(sv + i);
            const MosaicWalkResult dst =
                mvm_->pageTable(da).walk(dv + i);
            if (src.present != dst.present ||
                    (src.present && src.cpfn != dst.cpfn)) {
                return diverge(idx, "mosaic share: destination mapping "
                    "of " + pageStr(da, dv + i) +
                    " does not mirror the source");
            }
        }
        const VmStats &s = mvm_->stats();
        if (s.faults() != statsPre_.faults() ||
                s.swapOuts != statsPre_.swapOuts ||
                mvm_->residentPages() != residentPre_ ||
                mvm_->horizon() != horizonPre_) {
            return diverge(idx, "mosaic share changed fault or "
                "residency state");
        }
        sweepMirror({});
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
            if (!locMode_) {
                // CPFN round trip: the owner's page-table entry must
                // decode back to exactly this frame.
                const MosaicWalkResult walk =
                    mvm_->pageTable(f.owner.asid).walk(f.owner.vpn);
                if (!walk.present) {
                    return diverge(idx, "mosaic deep: owner of frame " +
                        std::to_string(p) + " not mapped");
                }
                const CandidateSet cand =
                    mvm_->allocator().mapper().candidates(
                        packPageId(f.owner));
                if (mvm_->allocator().mapper().toPfn(cand, walk.cpfn) !=
                            p ||
                        mvm_->allocator().mapper().toCpfn(cand, p) !=
                            walk.cpfn) {
                    return diverge(idx, "mosaic deep: CPFN round trip "
                        "failed for frame " + std::to_string(p));
                }
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
    bool locMode_ = false;
    unsigned arity_ = 4;
    unsigned log2Arity_ = 2;
    std::size_t numFrames_ = 0;
    std::vector<std::uint8_t> usedPre_;
    std::vector<std::uint8_t> dirtyPre_;
    std::vector<Tick> lastAccessPre_;
    std::vector<PageId> ownerPre_;
    Tick horizonPre_ = 0;
    VmStats statsPre_;
    std::size_t residentPre_ = 0;
    std::size_t ghostPre_ = 0;

    // LocationId mirror: ToC -> group, group -> members, slot -> does
    // the swap device hold a copy, page -> was it mapped after the
    // previous op.
    std::map<TocKeyM, std::uint64_t> boundGroup_;
    std::map<std::uint64_t, std::vector<TocKeyM>> groups_;
    std::uint64_t nextGroup_ = 1;
    std::map<SlotId, bool> slotSwap_;
    std::map<PageId, bool> prevPresent_;

    // PageIdHash + HorizonLru: unbounded recency oracle.
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
 * touchBatch-driven VM, each built from the same trace config with
 * its own identically seeded fault injector. Touches buffer into
 * blocks of @p batch; any non-touch mutation and the end of the
 * trace flush the pipeline. At every flush boundary the per-touch
 * PFNs and the full observable state must match exactly — the
 * primary harness (and therefore the digest) is untouched, so
 * batched runs reproduce scalar goldens by construction.
 */
class VmBatchShadow
{
  public:
    VmBatchShadow(const Trace &t, unsigned batch,
                  const fault::FaultPlan *plan, std::uint64_t iseed)
        : batch_(std::max(batch, 2u)),
          scalarInj_(plan, iseed), batchInj_(plan, iseed),
          linux_(t.cfgValue("kind", "mosaic") == "linux")
    {
        fault::FaultInjector *sf =
            plan->empty() ? nullptr : &scalarInj_;
        fault::FaultInjector *bf =
            plan->empty() ? nullptr : &batchInj_;
        if (linux_) {
            scalarVm_ =
                std::make_unique<LinuxVm>(linuxVmCfgFromTrace(t, sf));
            batchVm_ =
                std::make_unique<LinuxVm>(linuxVmCfgFromTrace(t, bf));
        } else {
            scalarVm_ = std::make_unique<MosaicVm>(
                mosaicVmCfgFromTrace(t, sf));
            batchVm_ = std::make_unique<MosaicVm>(
                mosaicVmCfgFromTrace(t, bf));
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
        case 's': {
            // The harness only reports valid shares as applied.
            if (MaybeDivergence bad = drain(idx))
                return bad;
            const Asid da = static_cast<Asid>(op.arg(2));
            const Vpn dv = op.arg(3);
            const std::size_t n = op.arg(4);
            static_cast<MosaicVm &>(*scalarVm_)
                .shareRange(asid, vpn, da, dv, n);
            static_cast<MosaicVm &>(*batchVm_)
                .shareRange(asid, vpn, da, dv, n);
            return compare(idx);
        }
        default:
            return std::nullopt;
        }
    }

    /** Flush the tail block and run the final cross-checks. */
    MaybeDivergence
    finish(std::size_t idx)
    {
        if (MaybeDivergence bad = drain(idx))
            return bad;
        if (scalarInj_.totalFired() != batchInj_.totalFired()) {
            return diverge(idx, "batched pipeline: injected-fault "
                "count diverged: scalar=" +
                std::to_string(scalarInj_.totalFired()) + " batched=" +
                std::to_string(batchInj_.totalFired()));
        }
        return std::nullopt;
    }

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
    fault::FaultInjector scalarInj_;
    fault::FaultInjector batchInj_;
    bool linux_;
    std::unique_ptr<VirtualMemory> scalarVm_;
    std::unique_ptr<VirtualMemory> batchVm_;
    std::vector<PageTouch> pending_;
    std::vector<Pfn> expected_;
    std::vector<Pfn> got_;
};

// ---------------------------------------------- sharded VM harness

/**
 * Differential harness for the sharded multi-tenant engine
 * (DESIGN.md §17). The engine under test is a ShardedMosaicVm; the
 * mirror independently replays the routing and adoption protocol
 * over its own per-shard scalar MosaicVms — built
 * from ShardedMosaicVm::shardConfig with an identically seeded fault
 * injector — and every op must land on the same global frame. With
 * one shard a plain scalar MosaicVm is additionally locked in step,
 * proving the engine degenerates to MosaicVm over the whole corpus.
 * Deep checkpoints run the whole-machine conservation oracle and a
 * field-for-field per-shard state comparison.
 */
class ShardHarness
{
  public:
    ShardHarness(const Trace &t, const fault::FaultPlan *plan,
                 std::uint64_t iseed, fault::FaultInjector *faults)
        : deep_(t.cfgUint("deep", 512)),
          mirrorInj_(plan, iseed), scalarInj_(plan, iseed)
    {
        ShardedVmConfig cfg;
        cfg.base = mosaicVmCfgFromTrace(t, faults);
        cfg.shards = t.cfgUint("shards", 1);
        locMode_ = cfg.base.sharing == SharingMode::LocationId;
        arity_ = cfg.base.arity;
        log2Arity_ = ceilLog2(arity_);
        shards_ = cfg.shards;
        part_ = PoolPartition::split(cfg.base.geometry, cfg.shards);
        vm_ = std::make_unique<ShardedMosaicVm>(cfg);

        ShardedVmConfig mcfg = cfg;
        mcfg.base.faults = plan->empty() ? nullptr : &mirrorInj_;
        for (std::size_t s = 0; s < shards_; ++s) {
            mirror_.push_back(std::make_unique<MosaicVm>(
                ShardedMosaicVm::shardConfig(mcfg, s)));
        }
        if (shards_ == 1) {
            MosaicVmConfig scfg = cfg.base;
            scfg.faults = plan->empty() ? nullptr : &scalarInj_;
            scalar_ = std::make_unique<MosaicVm>(scfg);
        }
    }

    MaybeDivergence
    apply(const TraceOp &op, std::size_t idx, bool *applied, Digest &dg)
    {
        *applied = true;
        MaybeDivergence bad;
        switch (op.kind) {
        case 't':
            bad = shardTouch(op, idx, dg);
            break;
        case 'u':
            bad = shardUnmap(op, idx, dg);
            break;
        case 's':
            bad = shardShare(op, idx, applied, dg);
            break;
        default:
            *applied = false;
            return std::nullopt;
        }
        if (bad || !*applied)
            return bad;
        if (MaybeDivergence c = compareCounters(idx))
            return c;
        if (deep_ > 0 && (idx + 1) % deep_ == 0)
            return deepCheck(idx);
        return std::nullopt;
    }

  private:
    // ------------------------------------------------ mirror engine
    //
    // An independent replay of the sharded engine's routing layer:
    // same protocol, separately written state, driven only through
    // the scalar MosaicVm public API.

    std::uint64_t
    tocKey(Asid asid, Vpn vpn) const
    {
        return (std::uint64_t{asid} << 48) | (vpn >> log2Arity_);
    }

    /** Home shard, unless an adoption forwarded the page's ToC (only
     *  LocationId-mode shares create forwards). */
    std::size_t
    mirrorRoute(Asid asid, Vpn vpn) const
    {
        const auto it = mforward_.find(tocKey(asid, vpn));
        if (it != mforward_.end())
            return it->second;
        return shardRoute(asid, static_cast<std::uint32_t>(shards_));
    }

    Pfn
    mirrorTouch(Asid asid, Vpn vpn, bool write)
    {
        const std::size_t s = mirrorRoute(asid, vpn);
        return part_.toGlobal(s, mirror_[s]->touch(asid, vpn, write));
    }

    void
    mirrorUnmap(Asid asid, Vpn vpn, std::size_t npages)
    {
        const std::uint64_t arity = std::uint64_t{1} << log2Arity_;
        std::size_t run_start = 0;
        std::size_t run_shard = mirrorRoute(asid, vpn);
        std::size_t i = 0;
        while (i < npages) {
            i = std::min(npages, i + (arity - ((vpn + i) & (arity - 1))));
            if (i >= npages)
                break;
            const std::size_t s = mirrorRoute(asid, vpn + i);
            if (s != run_shard) {
                mirror_[run_shard]->unmapRange(asid, vpn + run_start,
                                               i - run_start);
                run_start = i;
                run_shard = s;
            }
        }
        mirror_[run_shard]->unmapRange(asid, vpn + run_start,
                                       npages - run_start);
    }

    void
    mirrorShare(Asid sa, Vpn sv, Asid da, Vpn dv, std::size_t n)
    {
        for (std::size_t i = 0; i < n; i += arity_) {
            const std::size_t owner = mirrorRoute(sa, sv + i);
            const std::uint64_t dkey = tocKey(da, dv + i);
            if (owner !=
                    shardRoute(da, static_cast<std::uint32_t>(shards_)))
                mforward_[dkey] = static_cast<std::uint32_t>(owner);
            else
                mforward_.erase(dkey);
            mirror_[owner]->shareRange(sa, sv + i, da, dv + i, arity_);
        }
    }

    // --------------------------------------------------------- ops

    MaybeDivergence
    shardTouch(const TraceOp &op, std::size_t idx, Digest &dg)
    {
        const Asid asid = static_cast<Asid>(op.arg(0));
        const Vpn vpn = op.arg(1);
        const bool write = op.arg(2) != 0;
        const Pfn got = vm_->touch(asid, vpn, write);
        dg.mix('t');
        dg.mix(got);
        const Pfn want = mirrorTouch(asid, vpn, write);
        if (got != want) {
            return diverge(idx, "sharded touch " + pageStr(asid, vpn) +
                ": engine frame " + std::to_string(got) +
                " != mirror frame " + std::to_string(want));
        }
        if (got >= vm_->numFrames()) {
            return diverge(idx, "sharded touch " + pageStr(asid, vpn) +
                ": frame outside the global pool");
        }
        if (scalar_) {
            const Pfn sp = scalar_->touch(asid, vpn, write);
            if (sp != got) {
                return diverge(idx, "one-shard touch " +
                    pageStr(asid, vpn) + ": engine frame " +
                    std::to_string(got) + " != scalar MosaicVm frame " +
                    std::to_string(sp));
            }
        }
        return std::nullopt;
    }

    MaybeDivergence
    shardUnmap(const TraceOp &op, std::size_t idx, Digest &dg)
    {
        const Asid asid = static_cast<Asid>(op.arg(0));
        const Vpn vpn = op.arg(1);
        const std::size_t n = op.arg(2);
        vm_->unmapRange(asid, vpn, n);
        mirrorUnmap(asid, vpn, n);
        if (scalar_)
            scalar_->unmapRange(asid, vpn, n);
        dg.mix('u');
        dg.mix(asid);
        dg.mix(vpn);
        dg.mix(n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t s = 0; s < shards_; ++s) {
                if (vm_->shard(s).pageTable(asid).walk(vpn + i).present) {
                    return diverge(idx, "sharded unmap left " +
                        pageStr(asid, vpn + i) + " mapped at shard " +
                        std::to_string(s));
                }
            }
        }
        return std::nullopt;
    }

    MaybeDivergence
    shardShare(const TraceOp &op, std::size_t idx, bool *applied,
               Digest &dg)
    {
        const Asid sa = static_cast<Asid>(op.arg(0));
        const Vpn sv = op.arg(1);
        const Asid da = static_cast<Asid>(op.arg(2));
        const Vpn dv = op.arg(3);
        const std::size_t n = op.arg(4);

        // Deterministic validity rules (mirrors VmHarness): the skip
        // decision depends only on prior applied ops, so every
        // subsequence of a trace replays identically. The
        // destination-unbound probe is route-aware — the engine's own
        // precondition for posting an adoption.
        bool valid = locMode_ && sa != da && n > 0 && n % arity_ == 0 &&
                     (sv & (arity_ - 1)) == 0 && (dv & (arity_ - 1)) == 0;
        for (std::size_t i = 0; valid && i < n; i += arity_) {
            if (vm_->hasLocationBinding(da, dv + i))
                valid = false;
        }
        if (!valid) {
            *applied = false;
            return std::nullopt;
        }
        vm_->shareRange(sa, sv, da, dv, n);
        mirrorShare(sa, sv, da, dv, n);
        if (scalar_)
            scalar_->shareRange(sa, sv, da, dv, n);
        dg.mix('s');
        dg.mix(mix(sa, sv, da, dv));

        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t owner = vm_->routeOf(sa, sv + i);
            const MosaicWalkResult src =
                vm_->shard(owner).pageTable(sa).walk(sv + i);
            const MosaicWalkResult dst =
                vm_->shard(owner).pageTable(da).walk(dv + i);
            if (src.present != dst.present ||
                    (src.present && src.cpfn != dst.cpfn)) {
                return diverge(idx, "sharded share: destination "
                    "mapping of " + pageStr(da, dv + i) +
                    " does not mirror the source at the owner shard");
            }
        }
        if (!vm_->hasLocationBinding(da, dv)) {
            return diverge(idx, "sharded share left the destination "
                "ToC unbound");
        }
        return std::nullopt;
    }

    // ------------------------------------------------------ checks

    MaybeDivergence
    compareCounters(std::size_t idx)
    {
        const ShardCounters &c = vm_->counters();
        if (c.msgsPosted != c.msgsDrained) {
            return diverge(idx, "sharded adoption mailboxes not fully "
                "drained between ops");
        }
        if (vm_->forwardEntries() != mforward_.size()) {
            return diverge(idx, "sharded forward map size: engine " +
                std::to_string(vm_->forwardEntries()) + " != mirror " +
                std::to_string(mforward_.size()));
        }
        return std::nullopt;
    }

    MaybeDivergence
    deepCheck(std::size_t idx)
    {
        if (const std::optional<std::string> bad =
                checkShardConservation(*vm_)) {
            return diverge(idx, "sharded conservation: " + *bad);
        }
        MaybeDivergence bad;
        vm_->forEachForward(
            [&](std::uint64_t key, std::uint32_t target) {
                if (bad)
                    return;
                const auto it = mforward_.find(key);
                if (it == mforward_.end() || it->second != target) {
                    bad = diverge(idx, "sharded forward entry for key " +
                        std::to_string(key) +
                        " disagrees with the mirror");
                }
            });
        if (bad)
            return bad;
        for (std::size_t s = 0; s < shards_; ++s) {
            if (MaybeDivergence d =
                    compareVms(idx, vm_->shard(s), *mirror_[s],
                               "shard " + std::to_string(s)))
                return d;
        }
        if (scalar_) {
            if (MaybeDivergence d =
                    compareVms(idx, vm_->shard(0), *scalar_,
                               "one-shard scalar"))
                return d;
        }
        return std::nullopt;
    }

    static MaybeDivergence
    compareVms(std::size_t idx, const MosaicVm &a, const MosaicVm &b,
               const std::string &what)
    {
        const VmStats &x = a.stats();
        const VmStats &y = b.stats();
        if (x.minorFaults != y.minorFaults ||
                x.majorFaults != y.majorFaults ||
                x.swapIns != y.swapIns || x.swapOuts != y.swapOuts ||
                x.conflicts != y.conflicts ||
                x.ghostEvictions != y.ghostEvictions ||
                x.ghostRescues != y.ghostRescues) {
            return diverge(idx, "sharded deep: " + what +
                " stat counters disagree with the replica");
        }
        if (a.residentPages() != b.residentPages() ||
                a.ghostPages() != b.ghostPages() ||
                a.horizon() != b.horizon() || a.now() != b.now()) {
            return diverge(idx, "sharded deep: " + what +
                " residency/clock state disagrees with the replica");
        }
        if (a.locationBindings() != b.locationBindings() ||
                a.locationUsers() != b.locationUsers()) {
            return diverge(idx, "sharded deep: " + what +
                " location-ID population disagrees with the replica");
        }
        return std::nullopt;
    }

    std::size_t deep_;
    fault::FaultInjector mirrorInj_;
    fault::FaultInjector scalarInj_;
    bool locMode_ = false;
    unsigned arity_ = 1;
    unsigned log2Arity_ = 0;
    std::size_t shards_ = 1;
    PoolPartition part_;
    std::unique_ptr<ShardedMosaicVm> vm_;
    std::vector<std::unique_ptr<MosaicVm>> mirror_;
    std::unique_ptr<MosaicVm> scalar_;
    std::map<std::uint64_t, std::uint32_t> mforward_;
};

} // namespace

// -------------------------------------------------------- entry points

FuzzResult
runTrace(const Trace &trace)
{
    return runTrace(trace, 0);
}

FuzzResult
runTrace(const Trace &trace, unsigned batch)
{
    FuzzResult res;
    Digest dg;

    // One injector per trace run, seeded from the trace itself, so
    // injection decisions are a pure function of (plan, trace) —
    // thread-count and machine invariant, like every other fuzz
    // outcome. With MOSAIC_FAULTS unset the plan is empty and a null
    // pointer reaches the harnesses: zero behavior change.
    const fault::FaultPlan plan = fault::FaultPlan::fromEnv();
    const std::uint64_t iseed = mix(
        fault::hashString(trace.component), trace.cfgUint("pseed", 7));
    fault::FaultInjector injector(&plan, iseed);
    fault::FaultInjector *faults = plan.empty() ? nullptr : &injector;

    // Every op the harness applies is also mirrored into the batched
    // pipeline shadow (when batch > 1), which flags any scalar /
    // batched disagreement as a divergence. The primary path — and
    // therefore the digest — is byte-identical either way.
    const auto drive = [&](auto &harness, auto *shadow) {
        for (std::size_t i = 0; i < trace.ops.size(); ++i) {
            bool applied = false;
            MaybeDivergence bad =
                harness.apply(trace.ops[i], i, &applied, dg);
            if (applied)
                ++res.opsApplied;
            if (!bad && applied && shadow != nullptr)
                bad = shadow->mirror(trace.ops[i], i);
            if (bad) {
                res.divergence = std::move(bad);
                return;
            }
        }
        if (shadow != nullptr) {
            if (MaybeDivergence bad = shadow->finish(trace.ops.size()))
                res.divergence = std::move(bad);
        }
    };

    if (trace.component == "tlb") {
        // accessBatch's apply loop is the scalar access path itself;
        // there is no separate TLB engine to shadow.
        if (designKind(trace.cfgValue("kind", "vanilla"))) {
            DesignHarness h(trace);
            drive(h, static_cast<VmBatchShadow *>(nullptr));
        } else {
            TlbHarness h(trace);
            drive(h, static_cast<VmBatchShadow *>(nullptr));
        }
    } else if (trace.component == "vm") {
        VmHarness h(trace, faults);
        std::unique_ptr<VmBatchShadow> shadow;
        if (batch > 1) {
            shadow = std::make_unique<VmBatchShadow>(trace, batch,
                                                     &plan, iseed);
        }
        drive(h, shadow.get());
    } else if (trace.component == "vm-shard") {
        // The sharded engine's batched pipeline is covered by its own
        // tier-1 tests; like tlb, the batch knob changes nothing here,
        // so batched corpus sweeps reproduce these digests verbatim.
        ShardHarness h(trace, &plan, iseed, faults);
        drive(h, static_cast<VmBatchShadow *>(nullptr));
    } else {
        panic("fuzzer: unknown component '" + trace.component + "'");
    }
    res.faultsInjected = injector.totalFired();
    // Fold the injected-fault count into the digest only when a plan
    // is active: fault-free digests stay byte-identical to pre-PR.
    if (faults != nullptr)
        dg.mix(res.faultsInjected);
    res.digest = dg.h;
    return res;
}

Trace
shrinkTrace(const Trace &trace, std::size_t maxRuns)
{
    std::size_t runs = 0;
    const auto diverges = [&](const Trace &t) {
        ++runs;
        return runTrace(t).divergence.has_value();
    };

    if (!diverges(trace))
        return trace;

    Trace current = trace;
    // Everything after the first divergence is dead weight.
    const FuzzResult first = runTrace(current);
    ++runs;
    if (first.divergence &&
            first.divergence->opIndex + 1 < current.ops.size()) {
        current.ops.resize(first.divergence->opIndex + 1);
    }

    std::size_t chunk = std::max<std::size_t>(1, current.ops.size() / 2);
    while (runs < maxRuns) {
        bool removedAny = false;
        std::size_t start = 0;
        while (start < current.ops.size() && runs < maxRuns) {
            Trace candidate = current;
            const std::size_t end =
                std::min(current.ops.size(), start + chunk);
            candidate.ops.erase(
                candidate.ops.begin() +
                    static_cast<std::ptrdiff_t>(start),
                candidate.ops.begin() + static_cast<std::ptrdiff_t>(end));
            if (!candidate.ops.empty() && diverges(candidate)) {
                current = std::move(candidate);
                removedAny = true;
            } else {
                start = end;
            }
        }
        if (chunk == 1) {
            if (!removedAny)
                break;
        } else {
            chunk = std::max<std::size_t>(1, chunk / 2);
        }
    }
    return current;
}

// ---------------------------------------------------------- generator

namespace
{

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
    for (std::size_t i = 0; i < numOps; ++i) {
        TraceOp op;
        switch (kind) {
        case 0: // vanilla
            op.kind = "lif"[rng.pickWeighted({0.85, 0.09, 0.06})];
            break;
        case 1: // mosaic
            op.kind = "lcief"[rng.pickWeighted(
                {0.70, 0.12, 0.08, 0.06, 0.04})];
            break;
        case 2: // coalesced
            op.kind = "li"[rng.pickWeighted({0.9, 0.1})];
            break;
        default: // perforated
            op.kind = 'l';
        }
        op.nargs = 2;
        op.args[0] = 1 + rng.below(numAsids);
        op.args[1] = rng.below(universe);
        t.ops.push_back(op);
    }
    return t;
}

/**
 * Traces for the registry-built designs ("tlb-stride" / "tlb-pwc" /
 * "tlb-range" pseudo-components). Kept out of generateTlb so the
 * existing "tlb" rng stream — and every pinned golden digest derived
 * from it — is untouched. Accesses follow a drifting strided cursor
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
    const bool locMode = rng.chance(0.35);
    t.setCfg("sharing", locMode ? "locid" : "pageid");
    static constexpr const char *policies[] = {"horizon", "local",
                                               "shrunken"};
    t.setCfg("policy", policies[rng.pickWeighted({0.6, 0.2, 0.2})]);
    t.setCfgUint("shrink_ppm", 20000);
    t.setCfgUint("seed", rng());
    t.setCfgUint("hashseed", rng());
    t.setCfgUint("deep", 512);

    const std::uint64_t frames = buckets * (shape.f + shape.b);
    const std::uint64_t numAsids = 1 + rng.below(3);
    const std::uint64_t numTocs = std::max<std::uint64_t>(
        2, frames * (120 + rng.below(180)) / 100 / arity / numAsids);
    const std::uint64_t universe = numTocs * arity;

    // Track which ToCs shares have probably bound, to emit mostly
    // valid share ops (the harness skips the rest deterministically).
    std::set<std::pair<Asid, std::uint64_t>> bound;

    for (std::size_t i = 0; i < numOps; ++i) {
        TraceOp op;
        const double shareWeight =
            (locMode && numAsids >= 2) ? 0.06 : 0.0;
        const unsigned which =
            rng.pickWeighted({0.82, 0.12, shareWeight});
        const Asid asid = static_cast<Asid>(1 + rng.below(numAsids));
        if (which == 0) {
            op.kind = 't';
            op.nargs = 3;
            const std::uint64_t mvpn = rng.chance(0.5)
                ? rng.below(std::max<std::uint64_t>(1, numTocs / 4))
                : rng.below(numTocs);
            op.args[0] = asid;
            op.args[1] = mvpn * arity + rng.below(arity);
            op.args[2] = rng.chance(0.35) ? 1 : 0;
            if (locMode)
                bound.insert({asid, mvpn});
        } else if (which == 1) {
            op.kind = 'u';
            op.nargs = 3;
            op.args[0] = asid;
            op.args[1] = rng.below(universe);
            op.args[2] = 1 + rng.below(2 * std::uint64_t{arity});
        } else {
            op.kind = 's';
            op.nargs = 5;
            Asid da = static_cast<Asid>(1 + rng.below(numAsids));
            while (da == asid)
                da = static_cast<Asid>(1 + rng.below(numAsids));
            const std::uint64_t srcMvpn = rng.below(numTocs);
            std::uint64_t dstMvpn = rng.below(numTocs);
            for (unsigned tries = 0;
                 tries < 8 && bound.contains({da, dstMvpn}); ++tries)
                dstMvpn = rng.below(numTocs);
            const std::uint64_t span = 1 + rng.below(2);
            op.args[0] = asid;
            op.args[1] = srcMvpn * arity;
            op.args[2] = da;
            op.args[3] = dstMvpn * arity;
            op.args[4] = span * arity;
            bound.insert({asid, srcMvpn});
            for (std::uint64_t j = 0; j < span; ++j)
                bound.insert({da, dstMvpn + j});
        }
        t.ops.push_back(op);
    }
    return t;
}

/** A tiny sharded machine (DESIGN.md §17): the vm mosaic op mix over
 *  a ShardedMosaicVm, with the bucket count scaled by the shard
 *  count so every slice is a valid per-shard geometry, and enough
 *  ASIDs that the Lemire router spreads tenants across shards. */
Trace
generateShardedVm(Rng &rng, std::size_t numOps)
{
    Trace t;
    t.component = "vm-shard";
    t.setCfg("kind", "mosaic");
    struct Shape
    {
        unsigned f, b, d;
    };
    static constexpr Shape shapes[] = {{6, 2, 2}, {12, 4, 3}};
    const Shape shape = shapes[rng.pickWeighted({0.6, 0.4})];
    static constexpr std::size_t shardCounts[] = {1, 2, 4};
    const std::size_t shards =
        shardCounts[rng.pickWeighted({0.3, 0.35, 0.35})];
    const std::uint64_t buckets =
        shards * (shape.d + 1 + rng.below(4));
    t.setCfgUint("shards", shards);
    t.setCfgUint("buckets", buckets);
    t.setCfgUint("front", shape.f);
    t.setCfgUint("back", shape.b);
    t.setCfgUint("d", shape.d);
    static constexpr unsigned arities[] = {1, 2, 4, 8};
    const unsigned arity = arities[rng.below(4)];
    t.setCfgUint("arity", arity);
    const bool locMode = rng.chance(0.35);
    t.setCfg("sharing", locMode ? "locid" : "pageid");
    static constexpr const char *policies[] = {"horizon", "local",
                                               "shrunken"};
    t.setCfg("policy", policies[rng.pickWeighted({0.6, 0.2, 0.2})]);
    t.setCfgUint("shrink_ppm", 20000);
    t.setCfgUint("seed", rng());
    t.setCfgUint("hashseed", rng());
    t.setCfgUint("deep", 256);

    const std::uint64_t frames = buckets * (shape.f + shape.b);
    const std::uint64_t numAsids = 2 + rng.below(4 * shards);
    const std::uint64_t numTocs = std::max<std::uint64_t>(
        2, frames * (120 + rng.below(180)) / 100 / arity / numAsids);
    const std::uint64_t universe = numTocs * arity;

    std::set<std::pair<Asid, std::uint64_t>> bound;
    for (std::size_t i = 0; i < numOps; ++i) {
        TraceOp op;
        const double shareWeight =
            (locMode && numAsids >= 2) ? 0.06 : 0.0;
        const unsigned which =
            rng.pickWeighted({0.82, 0.12, shareWeight});
        const Asid asid = static_cast<Asid>(1 + rng.below(numAsids));
        if (which == 0) {
            op.kind = 't';
            op.nargs = 3;
            const std::uint64_t mvpn = rng.chance(0.5)
                ? rng.below(std::max<std::uint64_t>(1, numTocs / 4))
                : rng.below(numTocs);
            op.args[0] = asid;
            op.args[1] = mvpn * arity + rng.below(arity);
            op.args[2] = rng.chance(0.35) ? 1 : 0;
            if (locMode)
                bound.insert({asid, mvpn});
        } else if (which == 1) {
            op.kind = 'u';
            op.nargs = 3;
            op.args[0] = asid;
            op.args[1] = rng.below(universe);
            op.args[2] = 1 + rng.below(2 * std::uint64_t{arity});
        } else {
            op.kind = 's';
            op.nargs = 5;
            Asid da = static_cast<Asid>(1 + rng.below(numAsids));
            while (da == asid)
                da = static_cast<Asid>(1 + rng.below(numAsids));
            const std::uint64_t srcMvpn = rng.below(numTocs);
            std::uint64_t dstMvpn = rng.below(numTocs);
            for (unsigned tries = 0;
                 tries < 8 && bound.contains({da, dstMvpn}); ++tries)
                dstMvpn = rng.below(numTocs);
            const std::uint64_t span = 1 + rng.below(2);
            op.args[0] = asid;
            op.args[1] = srcMvpn * arity;
            op.args[2] = da;
            op.args[3] = dstMvpn * arity;
            op.args[4] = span * arity;
            bound.insert({asid, srcMvpn});
            for (std::uint64_t j = 0; j < span; ++j)
                bound.insert({da, dstMvpn + j});
        }
        t.ops.push_back(op);
    }
    return t;
}

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
        t.setCfgUint("seed", rng());
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

} // namespace

Trace
generateTrace(const std::string &component, std::uint64_t seed,
              std::size_t numOps)
{
    Rng rng(mix(seed, 0xF0220000 + numOps));
    if (component == "tlb")
        return generateTlb(rng, numOps);
    if (component == "tlb-stride")
        return generateDesignTlb(rng, numOps, "stride");
    if (component == "tlb-pwc")
        return generateDesignTlb(rng, numOps, "pwc");
    if (component == "tlb-range")
        return generateDesignTlb(rng, numOps, "range");
    if (component == "vm") {
        if (rng.chance(0.25))
            return generateLinuxVm(rng, numOps);
        return generateMosaicVm(rng, numOps);
    }
    if (component == "vm-shard")
        return generateShardedVm(rng, numOps);
    if (component == "wl-warp")
        return generateWorkloadVm(rng, numOps, "warp");
    if (component == "wl-kv")
        return generateWorkloadVm(rng, numOps, "kv");
    if (component == "wl-session")
        return generateWorkloadVm(rng, numOps, "session");
    if (component == "wl-scan")
        return generateWorkloadVm(rng, numOps, "scan");
    panic("generateTrace: unknown component '" + component + "'");
}

} // namespace mosaic
