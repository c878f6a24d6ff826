/**
 * @file
 * The differential fuzzer: drives a real component (a VM, the sharded
 * VM engine, or a translation design) in lockstep with its oracle
 * model through a deterministic operation sequence, cross-checking
 * state after every operation.
 *
 * Three entry points:
 *  - generateTrace() builds a random but fully deterministic Trace
 *    from (component, seed, numOps);
 *  - runTrace() executes a trace, returning the first divergence (if
 *    any) and a digest of every observable outcome — two runs of the
 *    same trace must produce bit-identical digests, on any machine
 *    and under any MOSAIC_THREADS setting;
 *  - shrinkTrace() delta-debugs a diverging trace down to a minimal
 *    reproducer (every subsequence of a trace is itself a valid
 *    trace, because harnesses deterministically skip ops that are
 *    invalid in the current state).
 *
 * What is checked, per component:
 *  - vm/linux: full lockstep against the bounded OracleVm — fault
 *    kinds, all swap/fault counters, resident set, swap population,
 *    per-frame dirty bits and access times;
 *  - vm/mosaic: the exact placement rule re-derived from
 *    MosaicAllocator, predicted PFN/victim/horizon/conflict/ghost
 *    accounting per touch (every policy but ShrunkenCache), the exact
 *    frames, ghosts and swap copies each unmap releases, per-frame
 *    CPFN round trips, ghost-count scans, and (under HorizonLru) the
 *    live-set == global-LRU-top-L equivalence against an unbounded
 *    OracleVm;
 *  - tlb (every registry design kind): one harness builds the real
 *    design and its recency-list reference model from one parsed
 *    registry spec and checks the cached translation (PFN, or CPFN
 *    for a Mosaic sub-entry) before every access, every hit/miss
 *    result, and after every op every metric forEachDesignMetric
 *    emits — all TlbStats counters, walk-cost and helper counters,
 *    coalesced coverage, reach and valid entries.
 *
 * Runs are fault-free: no MOSAIC_FAULTS site lies on a fuzzed
 * component's path (DESIGN.md §11).
 */

#ifndef MOSAIC_ORACLE_FUZZER_HH_
#define MOSAIC_ORACLE_FUZZER_HH_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "oracle/trace.hh"

namespace mosaic
{

/**
 * One fuzz component: the name generateTrace() and `mosaic_fuzz
 * --component` accept, and the component line of the traces it
 * generates — the name runTrace() dispatches on.
 */
struct FuzzComponent
{
    std::string_view name;
    std::string_view traceComponent;
};

/** Every fuzz component, in `mosaic_fuzz --component all` order. */
inline constexpr FuzzComponent fuzzComponents[] = {
    {"vm", "vm"},         {"vm-shard", "vm-shard"},
    {"tlb", "tlb"},       {"tlb-stride", "tlb"},
    {"tlb-pwc", "tlb"},   {"tlb-range", "tlb"},
    {"wl-warp", "vm"},    {"wl-kv", "vm"},
    {"wl-session", "vm"}, {"wl-scan", "vm"},
};

/** True when runTrace() executes traces of @p component: some fuzz
 *  component generates them. */
inline bool
isTraceComponent(std::string_view component)
{
    for (const FuzzComponent &c : fuzzComponents) {
        if (c.traceComponent == component)
            return true;
    }
    return false;
}

/** A disagreement between the real component and its oracle. */
struct FuzzDivergence
{
    /** Index of the trace op whose checks failed. */
    std::size_t opIndex = 0;

    /** Human-readable description of the failed check. */
    std::string message;
};

/** Outcome of executing one trace. */
struct FuzzResult
{
    /** First divergence, or nullopt when the whole trace passed. */
    std::optional<FuzzDivergence> divergence;

    /** FNV-1a digest over every applied op's observable outcomes.
     *  Equal traces must produce equal digests everywhere. */
    std::uint64_t digest = 0;

    /** Ops actually applied (invalid ops are skipped, not counted). */
    std::size_t opsApplied = 0;
};

/**
 * Execute a trace; stops at the first divergence. A vm or vm-shard
 * trace whose cfg fails checkTraceCfg() diverges at op 0 with that
 * check's message, applying nothing.
 */
FuzzResult runTrace(const Trace &trace);

/**
 * Execute a trace with the batched-pipeline shadow (DESIGN.md §13).
 * The primary component/oracle/digest path runs exactly as
 * runTrace(trace) — digests are unchanged by
 * construction — while every applied vm op is additionally mirrored
 * into a scalar-driven and a touchBatch-driven VM pair whose per-op
 * results and full observable state are compared at every flush
 * boundary: block full, any mutating non-touch op, and end of trace.
 * Any mismatch surfaces as a divergence. @p batch <= 1 is the plain
 * scalar run, and a block above 4096 runs at 4096, so an untrusted
 * CLI value bounds the shadow's scratch; tlb and vm-shard traces
 * ignore it.
 */
FuzzResult runTrace(const Trace &trace, std::uint64_t batch);

/**
 * Build a deterministic random trace.
 *
 * @param component a fuzzComponents name: "vm", "vm-shard", or
 *                  "tlb" (the four paper TLB kinds); the
 *                  pseudo-components "tlb-stride", "tlb-pwc", and
 *                  "tlb-range" generate "tlb" traces pinned to those
 *                  designs (strided access patterns, design-specific
 *                  cfg),
 *                  and "wl-warp"/"wl-kv"/"wl-session"/"wl-scan"
 *                  generate "vm" traces whose touch streams come
 *                  from real scenario-engine runs (DESIGN.md §15)
 *                  folded onto a small VM universe.
 * @param seed stream selector; same (component, seed, numOps) always
 *             yields the same trace.
 * @param numOps operations to generate.
 */
Trace generateTrace(const std::string &component, std::uint64_t seed,
                    std::size_t numOps);

/**
 * Delta-debug a diverging trace to a (1-)minimal reproducer: remove
 * chunks, halving the chunk size down to single ops, keeping any
 * candidate that still diverges. Returns the input unchanged when it
 * does not diverge. @p maxRuns bounds the total re-executions.
 */
Trace shrinkTrace(const Trace &trace, std::size_t maxRuns = 3000);

} // namespace mosaic

#endif // MOSAIC_ORACLE_FUZZER_HH_
