#include "core/experiments.hh"

#include <chrono>

#include "core/batch_pipeline.hh"
#include "core/translation_sim.hh"
#include "core/vm_touch_sink.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"

namespace mosaic
{

MemoryGeometry
ampleGeometry(std::uint64_t footprint_bytes)
{
    MemoryGeometry g;
    const std::uint64_t pages = footprint_bytes / pageSize + 1;
    const std::uint64_t frames = pages * 13 / 10 + 4096;
    g.numFrames = (frames / g.slotsPerBucket() + 1) * g.slotsPerBucket();
    return g;
}

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One Table 3 repetition, fully self-contained. */
struct Table3Sample
{
    std::uint64_t footprintBytes = 0;
    double firstConflictPct = -1.0; // < 0: no conflict observed
    double steadyPct = -1.0;        // < 0: no steady-state samples
    double seconds = 0.0;
};

Table3Sample
runTable3Cell(WorkloadKind kind, const Table3Options &options,
              unsigned run)
{
    const auto start = Clock::now();
    const std::uint64_t seed = experimentCellSeed(options.seed, run);

    const std::uint64_t mem_bytes =
        std::uint64_t{options.memFrames} * pageSize;
    const auto footprint = static_cast<std::uint64_t>(
        static_cast<double>(mem_bytes) * options.footprintFactor);
    const std::unique_ptr<Workload> workload =
        makeFootprintWorkload(kind, footprint, seed);

    MosaicVmConfig config;
    config.geometry.numFrames = options.memFrames;
    config.geometry.hashSeed = seed ^ 0xA110C;
    config.seed = seed;
    MosaicVm vm(config);

    // Scalar or batched per MOSAIC_BATCH; results are identical by
    // the touchBatch contract (tests/test_batch_pipeline.cc).
    const auto sink = makeVmTouchSink(vm, 1, batchBlockFromEnv());
    workload->run(*sink);
    sink->flush();

    Table3Sample sample;
    sample.footprintBytes = workload->info().footprintBytes;
    if (vm.stats().firstConflictUtilization >= 0) {
        sample.firstConflictPct =
            100.0 * vm.stats().firstConflictUtilization;
    }
    if (vm.stats().steadyUtilization.count() > 0)
        sample.steadyPct = 100.0 * vm.stats().steadyUtilization.mean();
    sample.seconds = secondsSince(start);
    return sample;
}

/** One Table 4 repetition (both VMs), fully self-contained. */
struct Table4Sample
{
    std::uint64_t footprintBytes = 0;
    double linuxSwapIo = 0.0;
    double mosaicSwapIo = 0.0;
    double seconds = 0.0;
};

Table4Sample
runTable4Cell(WorkloadKind kind, const Table4Options &options,
              unsigned run)
{
    const auto start = Clock::now();
    const std::uint64_t seed = experimentCellSeed(options.seed, run);

    const std::uint64_t mem_bytes =
        std::uint64_t{options.memFrames} * pageSize;
    const auto footprint = static_cast<std::uint64_t>(
        static_cast<double>(mem_bytes) * options.footprintFactor);
    const std::unique_ptr<Workload> workload =
        makeFootprintWorkload(kind, footprint, seed);

    Table4Sample sample;
    sample.footprintBytes = workload->info().footprintBytes;

    // Both VMs consume one pass of the workload through a tee: each
    // sees exactly the touch sequence a private run would give it,
    // and the reference stream is generated once for both.
    LinuxVmConfig linux_config;
    linux_config.numFrames = options.memFrames;
    LinuxVm linux_vm(linux_config);

    MosaicVmConfig mosaic_config;
    mosaic_config.geometry.numFrames = options.memFrames;
    mosaic_config.geometry.hashSeed = seed ^ 0xA110C;
    mosaic_config.seed = seed;
    MosaicVm mosaic_vm(mosaic_config);

    const unsigned block = batchBlockFromEnv();
    const auto linux_sink = makeVmTouchSink(linux_vm, 1, block);
    const auto mosaic_sink = makeVmTouchSink(mosaic_vm, 1, block);
    TeeSink tee;
    tee.add(linux_sink.get());
    tee.add(mosaic_sink.get());
    workload->run(tee);
    tee.flush();

    sample.linuxSwapIo =
        static_cast<double>(linux_vm.stats().swapIns +
                            linux_vm.stats().swapOuts);
    sample.mosaicSwapIo =
        static_cast<double>(mosaic_vm.stats().swapIns +
                            mosaic_vm.stats().swapOuts);

    sample.seconds = secondsSince(start);
    return sample;
}

} // namespace

Fig6Cell
runFig6Cell(WorkloadKind kind, const Fig6Options &options,
            std::size_t ways_index)
{
    const auto start = Clock::now();

    // The reference stream is shared by every cell of the panel (the
    // figure compares TLB geometries on one trace), so the workload
    // and sim seeds come from options.seed alone; this cell merely
    // owns private generator instances.
    const std::unique_ptr<Workload> workload =
        makeFig6Workload(kind, options.scale, options.seed);

    TranslationSimConfig config;
    config.memory = ampleGeometry(workload->info().footprintBytes);
    config.tlbEntries = options.tlbEntries;
    config.waysList = {options.waysList.at(ways_index)};
    config.arities = options.arities;
    if (!options.kernelHugePages)
        config.kernel.accessEvery = 0;
    config.seed = options.seed;

    TranslationSim sim(config);
    workload->run(sim);

    Fig6Cell cell;
    cell.footprintBytes = workload->info().footprintBytes;
    cell.accesses = sim.totalAccesses();
    cell.row.ways = options.waysList.at(ways_index);
    cell.row.vanillaMisses = sim.vanillaStats(0).misses;
    for (std::size_t a = 0; a < options.arities.size(); ++a)
        cell.row.mosaicMisses.push_back(sim.mosaicStats(0, a).misses);
    cell.seconds = secondsSince(start);
    return cell;
}

Fig6Result
runFig6(WorkloadKind kind, const Fig6Options &options,
        ThreadPool &pool)
{
    std::vector<Fig6Cell> cells(options.waysList.size());
    parallelFor(pool, cells.size(), [&](std::size_t w) {
        cells[w] = runFig6Cell(kind, options, w);
    });

    Fig6Result result;
    result.kind = kind;
    result.arities = options.arities;
    for (Fig6Cell &cell : cells) {
        // Identical across cells (one shared reference stream).
        result.footprintBytes = cell.footprintBytes;
        result.accesses = cell.accesses;
        result.cellSeconds += cell.seconds;
        result.rows.push_back(std::move(cell.row));
    }
    return result;
}

Fig6Result
runFig6(WorkloadKind kind, const Fig6Options &options)
{
    return runFig6(kind, options, ThreadPool::shared());
}

Table3Row
runTable3(WorkloadKind kind, const Table3Options &options,
          ThreadPool &pool)
{
    std::vector<Table3Sample> samples(options.runs);
    parallelFor(pool, samples.size(), [&](std::size_t run) {
        samples[run] =
            runTable3Cell(kind, options, static_cast<unsigned>(run));
    });

    Table3Row row;
    row.kind = kind;
    for (const Table3Sample &sample : samples) {
        row.footprintBytes = sample.footprintBytes;
        if (sample.firstConflictPct >= 0)
            row.firstConflictPct.add(sample.firstConflictPct);
        if (sample.steadyPct >= 0)
            row.steadyPct.add(sample.steadyPct);
        row.cellSeconds += sample.seconds;
    }
    return row;
}

Table3Row
runTable3(WorkloadKind kind, const Table3Options &options)
{
    return runTable3(kind, options, ThreadPool::shared());
}

double
Table4Row::differencePct() const
{
    const double linux_io = linuxSwapIo.mean();
    const double mosaic_io = mosaicSwapIo.mean();
    if (linux_io == 0.0)
        return 0.0;
    return 100.0 * (linux_io - mosaic_io) / linux_io;
}

Table4Row
runTable4(WorkloadKind kind, const Table4Options &options,
          ThreadPool &pool)
{
    std::vector<Table4Sample> samples(options.runs);
    parallelFor(pool, samples.size(), [&](std::size_t run) {
        samples[run] =
            runTable4Cell(kind, options, static_cast<unsigned>(run));
    });

    Table4Row row;
    row.kind = kind;
    for (const Table4Sample &sample : samples) {
        row.footprintBytes = sample.footprintBytes;
        row.linuxSwapIo.add(sample.linuxSwapIo);
        row.mosaicSwapIo.add(sample.mosaicSwapIo);
        row.cellSeconds += sample.seconds;
    }
    return row;
}

Table4Row
runTable4(WorkloadKind kind, const Table4Options &options)
{
    return runTable4(kind, options, ThreadPool::shared());
}

} // namespace mosaic
