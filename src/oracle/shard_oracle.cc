#include "oracle/shard_oracle.hh"

#include <sstream>

namespace mosaic
{

namespace
{

std::optional<std::string>
fail(const std::string &message)
{
    return message;
}

} // namespace

std::optional<std::string>
checkShardConservation(const ShardedMosaicVm &vm, bool deep)
{
    const std::size_t shards = vm.numShards();
    const PoolPartition &part = vm.partition();

    // Partition exactness: the shard slices tile the global pool.
    std::size_t sum_frames = 0;
    for (std::size_t s = 0; s < shards; ++s)
        sum_frames += vm.shard(s).numFrames();
    if (sum_frames != vm.numFrames() ||
            sum_frames != part.numShards * part.framesPerShard) {
        std::ostringstream out;
        out << "shard frame sum " << sum_frames << " != global "
            << vm.numFrames();
        return fail(out.str());
    }

    // Conservation: per-shard counts (recomputed from the frame
    // table when deep) sum to the machine-wide figures.
    std::size_t sum_resident = 0;
    std::size_t sum_ghosts = 0;
    for (std::size_t s = 0; s < shards; ++s) {
        const MosaicVm &sv = vm.shard(s);
        if (deep) {
            std::size_t used = 0;
            std::size_t ghosts = 0;
            for (Pfn pfn = 0; pfn < sv.numFrames(); ++pfn) {
                const Frame &f = sv.frameTable().frame(pfn);
                if (!f.used)
                    continue;
                ++used;
                if (f.lastAccess < sv.horizon())
                    ++ghosts;
                // Routing: every page lives at its ASID's home shard.
                const std::size_t home = vm.homeShard(f.owner.asid);
                if (home != s) {
                    std::ostringstream out;
                    out << "page (" << f.owner.asid << ", "
                        << f.owner.vpn << ") resident at shard " << s
                        << " but its home shard is " << home;
                    return fail(out.str());
                }
            }
            if (used != sv.residentPages()) {
                std::ostringstream out;
                out << "shard " << s << " resident count " << used
                    << " != reported " << sv.residentPages();
                return fail(out.str());
            }
            if (ghosts != sv.ghostPages()) {
                std::ostringstream out;
                out << "shard " << s << " ghost count " << ghosts
                    << " != reported " << sv.ghostPages();
                return fail(out.str());
            }
        }
        sum_resident += sv.residentPages();
        sum_ghosts += sv.ghostPages();
    }
    if (sum_resident != vm.residentPages())
        return fail("resident-page sum != machine residentPages()");
    if (sum_ghosts != vm.ghostPages())
        return fail("ghost-page sum != machine ghostPages()");

    // Stat conservation: an independent fold of the per-shard stats
    // must reproduce the machine aggregate field for field.
    VmStats fold;
    for (std::size_t s = 0; s < shards; ++s) {
        const VmStats &st = vm.shard(s).stats();
        fold.minorFaults += st.minorFaults;
        fold.majorFaults += st.majorFaults;
        fold.swapIns += st.swapIns;
        fold.swapOuts += st.swapOuts;
        fold.conflicts += st.conflicts;
        fold.ghostEvictions += st.ghostEvictions;
        fold.ghostRescues += st.ghostRescues;
        if (st.firstConflictUtilization >= 0 &&
                (fold.firstConflictUtilization < 0 ||
                 st.firstConflictUtilization <
                     fold.firstConflictUtilization))
            fold.firstConflictUtilization = st.firstConflictUtilization;
        if (st.firstSwapOutUtilization >= 0 &&
                (fold.firstSwapOutUtilization < 0 ||
                 st.firstSwapOutUtilization <
                     fold.firstSwapOutUtilization))
            fold.firstSwapOutUtilization = st.firstSwapOutUtilization;
        fold.steadyUtilization.merge(st.steadyUtilization);
    }
    const VmStats &agg = vm.stats();
    if (fold.minorFaults != agg.minorFaults ||
            fold.majorFaults != agg.majorFaults ||
            fold.swapIns != agg.swapIns ||
            fold.swapOuts != agg.swapOuts ||
            fold.conflicts != agg.conflicts ||
            fold.ghostEvictions != agg.ghostEvictions ||
            fold.ghostRescues != agg.ghostRescues ||
            fold.firstConflictUtilization !=
                agg.firstConflictUtilization ||
            fold.firstSwapOutUtilization !=
                agg.firstSwapOutUtilization ||
            fold.steadyUtilization.count() !=
                agg.steadyUtilization.count() ||
            fold.steadyUtilization.sum() != agg.steadyUtilization.sum())
        return fail("aggregate stats != fold of per-shard stats");

    return std::nullopt;
}

} // namespace mosaic
