#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hh"
#include "oracle/fuzz_internal.hh"
#include "oracle/oracle_vm.hh"
#include "oracle/shard_oracle.hh"
#include "os/mosaic_vm.hh"
#include "os/sharded_vm.hh"
#include "util/log.hh"

namespace mosaic::fuzz
{

namespace
{

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

void
runShardTrace(const Trace &trace, const fault::FaultPlan &plan,
              std::uint64_t iseed, fault::FaultInjector *faults,
              Digest &dg, FuzzResult &res)
{
    // The sharded engine's batched pipeline is covered by its own
    // tier-1 tests; like tlb, the batch knob changes nothing here,
    // so batched corpus sweeps reproduce these digests verbatim.
    ShardHarness h(trace, &plan, iseed, faults);
    drive(trace, h, dg, res);
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

} // namespace mosaic::fuzz
