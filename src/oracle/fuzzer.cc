#include "oracle/fuzzer.hh"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "oracle/fuzz_internal.hh"
#include "util/log.hh"
#include "util/random.hh"

namespace mosaic
{

using namespace fuzz;

// -------------------------------------------------------- entry points

FuzzResult
runTrace(const Trace &trace)
{
    FuzzResult res;
    Digest dg;

    // A cfg value the harnesses do not know fails the trace at op 0,
    // as tryReadTraceFile refuses the file: an in-process trace must
    // neither fall back to a default nor panic.
    if (const Status cfg = checkTraceCfg(trace); !cfg.ok()) {
        res.divergence = FuzzDivergence{0, cfg.message()};
    } else if (trace.component == "tlb") {
        runTlbTrace(trace, dg, res);
    } else if (trace.component == "vm") {
        runVmTrace(trace, dg, res);
    } else if (trace.component == "vm-shard") {
        runShardTrace(trace, dg, res);
    } else {
        panic("fuzzer: unknown component '" + trace.component + "'");
    }
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
