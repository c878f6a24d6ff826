#include "oracle/fuzzer.hh"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "fault/fault.hh"
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
    return runTrace(trace, 0);
}

FuzzResult
runTrace(const Trace &trace, std::uint64_t batch)
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

    if (trace.component == "tlb") {
        runTlbTrace(trace, dg, res);
    } else if (trace.component == "vm") {
        runVmTrace(trace, batch, plan, iseed, faults, dg, res);
    } else if (trace.component == "vm-shard") {
        runShardTrace(trace, plan, iseed, faults, dg, res);
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
