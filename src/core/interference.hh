/**
 * @file
 * The multiprogrammed interference sweep (DESIGN.md §15): mixes of
 * workload engines co-scheduled as concurrent ASIDs on one simulated
 * machine, context-switching every quantum. TLB entries are
 * ASID-tagged (nothing flushes), so tenants compete for capacity —
 * the sweep reports, per tenant, the misses/walk-cost it saw while
 * scheduled and its slowdown relative to running alone on the same
 * machine.
 *
 * Attribution is exact, not sampled: the simulation is serial within
 * a cell, so the delta of every design counter across a tenant's
 * quantum belongs to that tenant (plus the cold misses its
 * co-runners caused it — which is the interference being measured).
 * Each mix is one cell on the thread pool; a cell's tenant streams
 * are pure functions of (options.seed, mix index, tenant index) via
 * experimentCellSeed, so runs are bit-identical at any MOSAIC_THREADS.
 */

#ifndef MOSAIC_CORE_INTERFERENCE_HH_
#define MOSAIC_CORE_INTERFERENCE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiments.hh"
#include "telemetry/registry.hh"
#include "util/thread_pool.hh"
#include "workloads/factory.hh"

namespace mosaic
{

/** One co-scheduled tenant of a mix. */
struct InterferenceTenant
{
    WorkloadKind kind{};

    /** Per-tenant workload scale, multiplied by the sweep scale. */
    double scale = 1.0;
};

/** A named mix of tenants sharing one machine. */
struct InterferenceMix
{
    std::string name;
    std::vector<InterferenceTenant> tenants;
};

/** The default mixes: GPU + server pairings plus the full stack. */
std::vector<InterferenceMix> defaultInterferenceMixes();

/** Options for the interference sweep. */
struct InterferenceOptions
{
    std::vector<InterferenceMix> mixes = defaultInterferenceMixes();

    /** Global workload scale multiplier (same scale as Figure 6). */
    double scale = 0.25;

    unsigned tlbEntries = 1024;
    unsigned ways = 8;

    /** Mosaic arity of the mosaic-backed designs. */
    unsigned arity = 8;

    /** Accesses per scheduling quantum. */
    std::size_t quantum = 4096;

    std::uint64_t seed = 1;
};

/** Per-design counters a tenant accumulated (shared or solo run). */
struct TenantDesignCounters
{
    std::uint64_t vanillaMisses = 0;
    std::uint64_t vanillaWalkRefs = 0;
    std::uint64_t mosaicMisses = 0;
    std::uint64_t mosaicWalkRefs = 0;
    std::uint64_t pwcMisses = 0;
    std::uint64_t pwcWalkRefs = 0;
};

/** One tenant's results within a mix. */
struct InterferenceTenantResult
{
    WorkloadKind kind{};
    std::uint64_t footprintBytes = 0;
    std::uint64_t accesses = 0;
    std::uint64_t quanta = 0;

    /** Counters attributed to this tenant's quanta in the shared run. */
    TenantDesignCounters shared;

    /** The same counters when the tenant runs alone on the machine. */
    TenantDesignCounters solo;

    /** Sum over this tenant's quantum ends of the mosaic design's
     *  instantaneous reach (pages); mean = sum / quanta. */
    std::uint64_t reachPagesSum = 0;

    /** Mean mosaic-design reach (pages) while this tenant ran. */
    std::uint64_t meanReachPages() const
    {
        return quanta == 0 ? 0 : reachPagesSum / quanta;
    }

    /**
     * Cross-tenant slowdown in permille under the modeled memory
     * cost (accesses + walkRefs of the given design): 1000 = no
     * interference. Integer arithmetic — golden-test stable.
     */
    std::uint64_t vanillaSlowdownPermille() const;
    std::uint64_t mosaicSlowdownPermille() const;
};

/** One mix cell. */
struct InterferenceCell
{
    std::string mixName;
    std::uint64_t accesses = 0;
    std::vector<InterferenceTenantResult> tenants;

    /** Wall-clock seconds this cell took (timing only). */
    double seconds = 0.0;
};

/** Run one mix (shared run + per-tenant solo baselines). */
InterferenceCell runInterferenceCell(const InterferenceOptions &options,
                                     std::size_t mix_index);

/** Run every mix on @p pool, cells in mix order. */
std::vector<InterferenceCell>
runInterference(const InterferenceOptions &options, ThreadPool &pool);

/** runInterference on ThreadPool::shared(). */
std::vector<InterferenceCell>
runInterference(const InterferenceOptions &options);

/** Register one cell's metrics as
 *  "interference.<mix>.tenant<i>.<workload>.<metric>". */
void recordInterference(telemetry::Registry &r,
                        const InterferenceCell &cell);

} // namespace mosaic

#endif // MOSAIC_CORE_INTERFERENCE_HH_
