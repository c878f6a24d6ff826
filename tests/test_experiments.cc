/**
 * @file
 * End-to-end smoke tests of the experiment runners at miniature
 * scale: the Figure 6 sweep, the Table 3 utilization experiment, and
 * the Table 4 swapping comparison, checking the paper's qualitative
 * shape on each.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "core/experiments.hh"
#include "core/vm_touch_sink.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"

namespace mosaic
{
namespace
{

Fig6Options
tinyFig6()
{
    Fig6Options o;
    o.scale = 1.0 / 64;
    o.waysList = {1, 8, 256};
    o.arities = {4, 16};
    o.tlbEntries = 256;
    return o;
}

TEST(Fig6, ProducesFullGrid)
{
    const Fig6Result r = runFig6(WorkloadKind::Gups, tinyFig6());
    EXPECT_EQ(r.rows.size(), 3u);
    for (const auto &row : r.rows) {
        EXPECT_GT(row.vanillaMisses, 0u);
        ASSERT_EQ(row.mosaicMisses.size(), 2u);
    }
    EXPECT_GT(r.accesses, 0u);
    EXPECT_GT(r.footprintBytes, 0u);
}

TEST(Fig6, MosaicReducesMissesOnGraph500)
{
    // Needs a footprint comfortably beyond TLB reach (the paper's
    // regime); at miniature footprints both designs fit and the
    // kernel stream dominates, so use a moderate scale without it.
    Fig6Options o = tinyFig6();
    o.scale = 1.0 / 16;
    o.kernelHugePages = false;
    const Fig6Result r = runFig6(WorkloadKind::Graph500, o);
    // The paper's headline: across associativities, mosaic cuts
    // misses relative to vanilla (6-81 % for Mosaic-4; more with
    // larger arities).
    for (const auto &row : r.rows) {
        EXPECT_LT(row.mosaicMisses[0], row.vanillaMisses)
            << "ways " << row.ways;
        EXPECT_LE(row.mosaicMisses[1], row.mosaicMisses[0])
            << "ways " << row.ways;
    }
}

TEST(Fig6, AssociativityHelpsVanillaMoreThanMosaic)
{
    const Fig6Result r = runFig6(WorkloadKind::BTree, tinyFig6());
    const auto &direct = r.rows.front();
    const auto &full = r.rows.back();
    ASSERT_GT(direct.vanillaMisses, 0u);
    // Vanilla gains from associativity; mosaic is much less
    // sensitive (paper §4.1).
    const double vanilla_gain =
        static_cast<double>(direct.vanillaMisses) /
        static_cast<double>(full.vanillaMisses);
    const double mosaic_gain =
        static_cast<double>(direct.mosaicMisses[1]) /
        static_cast<double>(std::max<std::uint64_t>(
            1, full.mosaicMisses[1]));
    EXPECT_GE(vanilla_gain, 1.0);
    EXPECT_LT(mosaic_gain, vanilla_gain * 2.0);
}

TEST(Fig6, KernelHugePagesOptionChangesVanilla)
{
    Fig6Options with = tinyFig6();
    Fig6Options without = tinyFig6();
    without.kernelHugePages = false;
    const Fig6Result a = runFig6(WorkloadKind::Gups, with);
    const Fig6Result b = runFig6(WorkloadKind::Gups, without);
    // The kernel stream adds accesses (and some misses) when on.
    EXPECT_GT(a.accesses, b.accesses);
}

TEST(Table3, FirstConflictNearNinetyEightPercent)
{
    Table3Options o;
    o.memFrames = 4 * 1024;
    o.footprintFactor = 1.05;
    o.runs = 2;
    const Table3Row row = runTable3(WorkloadKind::Gups, o);
    ASSERT_GT(row.firstConflictPct.count(), 0u);
    EXPECT_GT(row.firstConflictPct.mean(), 96.0);
    EXPECT_LT(row.firstConflictPct.mean(), 100.0);
    EXPECT_GT(row.steadyPct.mean(), 98.0);
}

TEST(Table3, FootprintTracksFactor)
{
    Table3Options o;
    o.memFrames = 4 * 1024;
    o.footprintFactor = 1.05;
    o.runs = 1;
    const Table3Row row = runTable3(WorkloadKind::BTree, o);
    const double ratio = static_cast<double>(row.footprintBytes) /
                         (4.0 * 1024 * pageSize);
    EXPECT_NEAR(ratio, 1.05, 0.05);
}

TEST(Table4, BothVmsSwapUnderOvercommit)
{
    Table4Options o;
    o.memFrames = 4 * 1024;
    o.footprintFactor = 1.10;
    const Table4Row row = runTable4(WorkloadKind::Gups, o);
    EXPECT_GT(row.linuxSwapIo.mean(), 0.0);
    EXPECT_GT(row.mosaicSwapIo.mean(), 0.0);
}

TEST(Table4, DifferencePctSignConvention)
{
    Table4Row row;
    row.linuxSwapIo.add(100.0);
    row.mosaicSwapIo.add(80.0);
    EXPECT_DOUBLE_EQ(row.differencePct(), 20.0);
    Table4Row worse;
    worse.linuxSwapIo.add(100.0);
    worse.mosaicSwapIo.add(120.0);
    EXPECT_DOUBLE_EQ(worse.differencePct(), -20.0);
}

TEST(Table4, MosaicCompetitiveOnCyclicWorkload)
{
    // Graph500's repeated sweeps are LRU-hostile; mosaic's perturbed
    // eviction should not swap dramatically more than the baseline
    // (the paper reports mosaic matching or beating Linux beyond the
    // edge case).
    Table4Options o;
    o.memFrames = 4 * 1024;
    o.footprintFactor = 1.14;
    const Table4Row row = runTable4(WorkloadKind::Graph500, o);
    EXPECT_GT(row.linuxSwapIo.mean(), 0.0);
    EXPECT_LT(row.mosaicSwapIo.mean(), row.linuxSwapIo.mean() * 1.5);
}

/** Table 4 swap I/O of run 0 with each VM fed by its own pass of
 *  the workload: what runTable4's single tee'd pass must reproduce. */
std::pair<double, double>
separateVmSwapIo(WorkloadKind kind, const Table4Options &o)
{
    const std::uint64_t seed = experimentCellSeed(o.seed, 0);
    const auto footprint = static_cast<std::uint64_t>(
        static_cast<double>(std::uint64_t{o.memFrames} * pageSize) *
        o.footprintFactor);
    const auto workload = makeFootprintWorkload(kind, footprint, seed);

    LinuxVmConfig linux_config;
    linux_config.numFrames = o.memFrames;
    LinuxVm linux_vm(linux_config);
    VmTouchSink linux_sink(linux_vm, 1);
    workload->run(linux_sink);

    MosaicVmConfig mosaic_config;
    mosaic_config.geometry.numFrames = o.memFrames;
    mosaic_config.geometry.hashSeed = seed ^ 0xA110C;
    mosaic_config.seed = seed;
    MosaicVm mosaic_vm(mosaic_config);
    VmTouchSink mosaic_sink(mosaic_vm, 1);
    workload->run(mosaic_sink);

    return {static_cast<double>(linux_vm.stats().swapIo()),
            static_cast<double>(mosaic_vm.stats().swapIo())};
}

TEST(Table4, SinglePassMatchesSeparateVmRuns)
{
    const char *saved = std::getenv("MOSAIC_BATCH");
    const std::string saved_copy = saved ? saved : "";
    for (const WorkloadKind kind :
         {WorkloadKind::Gups, WorkloadKind::BTree}) {
        Table4Options o;
        o.memFrames = 2048;
        o.footprintFactor = kind == WorkloadKind::Gups ? 1.10 : 1.30;
        o.runs = 1;
        const auto [linux_io, mosaic_io] = separateVmSwapIo(kind, o);
        EXPECT_GT(linux_io, 0.0);
        EXPECT_GT(mosaic_io, 0.0);
        for (const char *batch : {"0", "64"}) {
            ::setenv("MOSAIC_BATCH", batch, 1);
            const Table4Row row = runTable4(kind, o);
            EXPECT_EQ(row.linuxSwapIo.mean(), linux_io)
                << "kind=" << static_cast<int>(kind) << " batch=" << batch;
            EXPECT_EQ(row.mosaicSwapIo.mean(), mosaic_io)
                << "kind=" << static_cast<int>(kind) << " batch=" << batch;
        }
    }
    if (saved)
        ::setenv("MOSAIC_BATCH", saved_copy.c_str(), 1);
    else
        ::unsetenv("MOSAIC_BATCH");
}

} // namespace
} // namespace mosaic
