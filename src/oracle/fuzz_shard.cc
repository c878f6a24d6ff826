#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "oracle/fuzz_internal.hh"
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
 * mirror independently replays its routing over its own per-shard
 * scalar MosaicVms — built from ShardedMosaicVm::shardConfig and fed
 * by shardRoute — and every op must land on the same global frame.
 * With one shard a plain scalar MosaicVm is additionally locked in
 * step, proving the engine degenerates to MosaicVm over the whole
 * corpus. Deep checkpoints run the whole-machine conservation oracle
 * and a field-for-field per-shard state comparison.
 */
class ShardHarness
{
  public:
    explicit ShardHarness(const Trace &t) : deep_(t.cfgUint("deep", 512))
    {
        ShardedVmConfig cfg;
        cfg.base = mosaicVmCfgFromTrace(t);
        cfg.shards = t.cfgUint("shards", 1);
        shards_ = cfg.shards;
        part_ = PoolPartition::split(cfg.base.geometry, cfg.shards);
        vm_ = std::make_unique<ShardedMosaicVm>(cfg);

        for (std::size_t s = 0; s < shards_; ++s) {
            mirror_.push_back(std::make_unique<MosaicVm>(
                ShardedMosaicVm::shardConfig(cfg, s)));
        }
        if (shards_ == 1)
            scalar_ = std::make_unique<MosaicVm>(cfg.base);
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
        default:
            *applied = false;
            return std::nullopt;
        }
        if (bad)
            return bad;
        if (deep_ > 0 && (idx + 1) % deep_ == 0)
            return deepCheck(idx);
        return std::nullopt;
    }

  private:
    /** Home shard of @p asid, computed independently of the engine. */
    std::size_t
    homeOf(Asid asid) const
    {
        return shardRoute(asid, static_cast<std::uint32_t>(shards_));
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
        const std::size_t home = homeOf(asid);
        const Pfn want =
            part_.toGlobal(home, mirror_[home]->touch(asid, vpn, write));
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
        mirror_[homeOf(asid)]->unmapRange(asid, vpn, n);
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

    // ------------------------------------------------------ checks

    MaybeDivergence
    deepCheck(std::size_t idx)
    {
        if (const std::optional<std::string> bad =
                checkShardConservation(*vm_)) {
            return diverge(idx, "sharded conservation: " + *bad);
        }
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
        return std::nullopt;
    }

    std::size_t deep_;
    std::size_t shards_ = 1;
    PoolPartition part_;
    std::unique_ptr<ShardedMosaicVm> vm_;
    std::vector<std::unique_ptr<MosaicVm>> mirror_;
    std::unique_ptr<MosaicVm> scalar_;
};

} // namespace

void
runShardTrace(const Trace &trace, Digest &dg, FuzzResult &res)
{
    ShardHarness h(trace);
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
    t.setCfg("sharing", "pageid");
    static constexpr const char *policies[] = {"horizon", "local",
                                               "shrunken"};
    t.setCfg("policy", policies[rng.pickWeighted({0.6, 0.2, 0.2})]);
    t.setCfgUint("shrink_ppm", 20000);
    (void)rng(); // the retired "cfg seed" draw: later draws stay put
    t.setCfgUint("hashseed", rng());
    t.setCfgUint("deep", 256);

    const std::uint64_t frames = buckets * (shape.f + shape.b);
    const std::uint64_t numAsids = 2 + rng.below(4 * shards);
    const std::uint64_t numTocs = std::max<std::uint64_t>(
        2, frames * (120 + rng.below(180)) / 100 / arity / numAsids);
    const std::uint64_t universe = numTocs * arity;

    for (std::size_t i = 0; i < numOps; ++i) {
        TraceOp op;
        const unsigned which = rng.pickWeighted({0.82, 0.12});
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
        } else {
            op.kind = 'u';
            op.nargs = 3;
            op.args[0] = asid;
            op.args[1] = rng.below(universe);
            op.args[2] = 1 + rng.below(2 * std::uint64_t{arity});
        }
        t.ops.push_back(op);
    }
    return t;
}

} // namespace mosaic::fuzz
