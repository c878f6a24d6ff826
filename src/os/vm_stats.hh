/**
 * @file
 * Counters collected by the virtual-memory models. Tables 3 and 4 of
 * the paper are computed from these.
 */

#ifndef MOSAIC_OS_VM_STATS_HH_
#define MOSAIC_OS_VM_STATS_HH_

#include <cstdint>

#include "util/stats.hh"

namespace mosaic
{

/** Virtual-memory event counters. */
struct VmStats
{
    /** Faults on never-mapped pages (first touch). */
    std::uint64_t minorFaults = 0;

    /** Faults on swapped-out pages (require swap-in I/O). */
    std::uint64_t majorFaults = 0;

    /** Pages read from the swap device. */
    std::uint64_t swapIns = 0;

    /** Pages written to the swap device. */
    std::uint64_t swapOuts = 0;

    /** Allocations whose every candidate slot held a live page
     *  (mosaic only): associativity/capacity conflicts. */
    std::uint64_t conflicts = 0;

    /** Memory utilization when the first conflict occurred; the
     *  paper's "1 - delta" column. Negative until a conflict. */
    double firstConflictUtilization = -1.0;

    /** Memory utilization when the first swap-out happened; how full
     *  memory got before this VM began swapping. Negative until a
     *  swap-out. */
    double firstSwapOutUtilization = -1.0;

    /** Always 0: nothing writes it, and it is no metric. Placement
     *  is a pure function of the frame state, so a failed placement
     *  has no retry to recover it. Kept only because
     *  perfbench/tenants_churn.cc reads it; it goes with that
     *  benchmark's next revision (ROADMAP item 6(c)). */
    std::uint64_t recoveredConflicts = 0;

    /** Ghost pages whose frames were reclaimed for an allocation. */
    std::uint64_t ghostEvictions = 0;

    /** Accesses to resident ghost pages, saving a swap-in that a
     *  strict global LRU would have required. */
    std::uint64_t ghostRescues = 0;

    /** Utilization samples taken at allocation time once memory is
     *  nearly full; mean() is the steady-state utilization. */
    RunningStat steadyUtilization;

    /** Total swap I/O operations, as sysstat would report. */
    std::uint64_t swapIo() const { return swapIns + swapOuts; }

    std::uint64_t faults() const { return minorFaults + majorFaults; }

    /**
     * Visit every counter as (name, value) pairs; the telemetry
     * registry consumes this without the header depending on it. Leaf
     * names mirror the field names verbatim; the utilization gauges
     * keep their -1 "never happened" sentinel.
     */
    template <typename Fn>
    void
    forEachMetric(Fn &&fn) const
    {
        fn("minorFaults", minorFaults);
        fn("majorFaults", majorFaults);
        fn("swapIns", swapIns);
        fn("swapOuts", swapOuts);
        fn("conflicts", conflicts);
        fn("firstConflictUtilization", firstConflictUtilization);
        fn("firstSwapOutUtilization", firstSwapOutUtilization);
        fn("ghostEvictions", ghostEvictions);
        fn("ghostRescues", ghostRescues);
        fn("steadyUtilization", steadyUtilization);
    }
};

} // namespace mosaic

#endif // MOSAIC_OS_VM_STATS_HH_
