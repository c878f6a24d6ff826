/**
 * @file
 * table4_swap: runTable4 for Graph500, XSBench and BTree across an
 * over-commit ladder, LinuxVm against MosaicVm. The time goes to the
 * workload engines and the os layer (hashing, iceberg placement,
 * Horizon LRU, swap); no TLB runs.
 */

#include <cstdio>
#include <iterator>
#include <memory>

#include "common.hh"
#include "core/experiments.hh"
#include "mem/mosaic_mapper.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "workloads/access_sink.hh"
#include "workloads/factory.hh"

namespace perfbench
{

using namespace mosaic;

namespace
{

/** 8 MiB of memory and a 3-step ladder: ~3 s rounds on 3 threads. */
constexpr std::size_t memFrames = 2048;
constexpr unsigned steps = 3;

constexpr WorkloadKind kinds[] = {WorkloadKind::Graph500,
                                  WorkloadKind::XsBench,
                                  WorkloadKind::BTree};
constexpr std::size_t numRows = std::size(kinds) * steps;

/** Batch block of the benchmark's own timed sinks. */
constexpr std::size_t sinkBlock = 4096;

WorkloadKind
rowKind(std::size_t row)
{
    return kinds[row / steps];
}

/** Row @p row's options: the paper's ladder 1.0151 + 0.0625 k,
 *  spread over `steps` points up to k = 9. */
Table4Options
rowOptions(std::uint64_t seed, std::size_t row)
{
    Table4Options options;
    options.memFrames = memFrames;
    options.footprintFactor =
        1.0151 + 0.0625 * (static_cast<double>(row % steps) * 9.0 /
                           (steps - 1));
    options.runs = 1;
    options.seed = seed;
    return options;
}

// runTable4Cell's construction, from public config (run 0 of a row).

std::uint64_t
cellSeed(const Table4Options &o)
{
    return experimentCellSeed(o.seed, 0);
}

std::unique_ptr<Workload>
rowWorkload(std::size_t row, const Table4Options &o)
{
    const auto footprint = static_cast<std::uint64_t>(
        static_cast<double>(std::uint64_t{o.memFrames} * pageSize) *
        o.footprintFactor);
    return makeFootprintWorkload(rowKind(row), footprint, cellSeed(o));
}

LinuxVmConfig
linuxConfig(const Table4Options &o)
{
    LinuxVmConfig config;
    config.numFrames = o.memFrames;
    return config;
}

MosaicVmConfig
mosaicConfig(const Table4Options &o)
{
    MosaicVmConfig config;
    config.geometry.numFrames = o.memFrames;
    config.geometry.hashSeed = cellSeed(o) ^ 0xA110C;
    config.seed = cellSeed(o);
    return config;
}

/** Feeds a VM in touchBatch blocks, one span per block. */
class TimedTouchSink : public AccessSink
{
  public:
    TimedTouchSink(VirtualMemory &vm, Tracer &tracer, const char *span)
        : vm_(vm), tracer_(tracer), span_(span), pfns_(sinkBlock)
    {
        buf_.reserve(sinkBlock);
    }

    void
    access(Addr vaddr, bool write) override
    {
        buf_.push_back(PageTouch{1, vpnOf(vaddr), write});
        if (buf_.size() == sinkBlock)
            flush();
    }

    void
    flush() override
    {
        if (buf_.empty())
            return;
        touches_ += buf_.size();
        {
            ScopedSpan span(&tracer_, span_);
            vm_.touchBatch(buf_, pfns_.data());
        }
        buf_.clear();
    }

    std::uint64_t touches() const { return touches_; }

  private:
    VirtualMemory &vm_;
    Tracer &tracer_;
    const char *span_;
    std::vector<PageTouch> buf_;
    std::vector<Pfn> pfns_;
    std::uint64_t touches_ = 0;
};

/** Computes every touched page's candidate set in blocks through
 *  MosaicMapper::candidatesMany, one span per block. */
class CandidateSink : public AccessSink
{
  public:
    CandidateSink(const MosaicMapper &mapper, Tracer &tracer)
        : mapper_(mapper), tracer_(tracer), cands_(sinkBlock)
    {
        keys_.reserve(sinkBlock);
    }

    void
    access(Addr vaddr, bool) override
    {
        keys_.push_back(packPageId(PageId{1, vpnOf(vaddr)}));
        if (keys_.size() == sinkBlock)
            flush();
    }

    void
    flush() override
    {
        if (keys_.empty())
            return;
        keysDone_ += keys_.size();
        {
            ScopedSpan span(&tracer_, "hash.candidatesMany");
            mapper_.candidatesMany(keys_, cands_.data());
        }
        keys_.clear();
    }

    std::uint64_t keys() const { return keysDone_; }

  private:
    const MosaicMapper &mapper_;
    Tracer &tracer_;
    std::vector<std::uint64_t> keys_;
    std::vector<CandidateSet> cands_;
    std::uint64_t keysDone_ = 0;
};

/** Swap I/O of every row, [linux, mosaic] pairs in row order. */
std::vector<std::uint64_t>
swapList(const std::vector<Table4Row> &rows)
{
    std::vector<std::uint64_t> out;
    for (const Table4Row &row : rows) {
        out.push_back(static_cast<std::uint64_t>(row.linuxSwapIo.mean()));
        out.push_back(
            static_cast<std::uint64_t>(row.mosaicSwapIo.mean()));
    }
    return out;
}

/** One VM of a rebuilt row, driven by a TimedTouchSink. */
struct RebuiltVm
{
    VmStats stats;
    std::uint64_t touches = 0;
};

template <typename Vm, typename Config>
RebuiltVm
rebuildVm(Workload &workload, const Config &config, Tracer &tracer,
          const char *span)
{
    Vm vm(config);
    TimedTouchSink sink(vm, tracer, span);
    workload.run(sink);
    sink.flush();
    return RebuiltVm{vm.stats(), sink.touches()};
}

/** Sum the event counters of @p s into @p total. */
void
addCounters(VmStats &total, const VmStats &s)
{
    total.minorFaults += s.minorFaults;
    total.majorFaults += s.majorFaults;
    total.swapIns += s.swapIns;
    total.swapOuts += s.swapOuts;
    total.conflicts += s.conflicts;
    total.ghostRescues += s.ghostRescues;
    total.ghostEvictions += s.ghostEvictions;
}

/** Per-layer side passes of a traced run (outside the timed phase). */
void
traceLayers(std::uint64_t seed, ThreadPool &pool, Tracer &tracer,
            const std::vector<std::uint64_t> &swaps,
            unsigned traced_rounds, RunResult &result)
{
    auto &m = result.metrics;

    // os: every row rebuilt from public config, each VM fed in timed
    // touchBatch blocks; the swap counts must match runTable4's.
    std::vector<RebuiltVm> linux_vms(numRows), mosaic_vms(numRows);
    parallelFor(pool, numRows, [&](std::size_t row) {
        const Table4Options o = rowOptions(seed, row);
        const auto workload = rowWorkload(row, o);
        linux_vms[row] = rebuildVm<LinuxVm>(*workload, linuxConfig(o),
                                            tracer, "os.linux.touchBatch");
        mosaic_vms[row] = rebuildVm<MosaicVm>(
            *workload, mosaicConfig(o), tracer, "os.mosaic.touchBatch");
    });
    std::vector<std::uint64_t> rebuilt;
    VmStats linux_total, mosaic_total;
    std::uint64_t touches = 0;
    for (std::size_t row = 0; row < numRows; ++row) {
        const VmStats &l = linux_vms[row].stats;
        const VmStats &s = mosaic_vms[row].stats;
        rebuilt.push_back(l.swapIo());
        rebuilt.push_back(s.swapIo());
        touches += mosaic_vms[row].touches;
        addCounters(linux_total, l);
        addCounters(mosaic_total, s);
    }
    result.check(rebuilt == swaps,
                 "table4: rows rebuilt from public config differ from "
                 "runTable4's swap counts");
    const double t = static_cast<double>(touches);
    m["os.linux.touch_ns"] =
        1e9 * tracer.totalSeconds("os.linux.touchBatch") / t;
    m["os.mosaic.touch_ns"] =
        1e9 * tracer.totalSeconds("os.mosaic.touchBatch") / t;
    m["os.linux.swap_io"] = static_cast<double>(linux_total.swapIo());
    m["os.mosaic.swap_io"] = static_cast<double>(mosaic_total.swapIo());
    m["os.linux.resident_frac"] =
        1.0 - static_cast<double>(linux_total.faults()) / t;
    m["os.mosaic.resident_frac"] =
        1.0 - static_cast<double>(mosaic_total.faults()) / t;
    m["os.mosaic.minor_faults"] =
        static_cast<double>(mosaic_total.minorFaults);
    m["os.mosaic.major_faults"] =
        static_cast<double>(mosaic_total.majorFaults);
    m["os.mosaic.conflicts"] = static_cast<double>(mosaic_total.conflicts);
    m["os.mosaic.ghost_rescues"] =
        static_cast<double>(mosaic_total.ghostRescues);
    m["os.mosaic.ghost_evictions"] =
        static_cast<double>(mosaic_total.ghostEvictions);

    // hash: candidate sets of the same touches' page ids.
    std::uint64_t keys = 0;
    for (std::size_t row = 0; row < numRows; ++row) {
        const Table4Options o = rowOptions(seed, row);
        const MosaicMapper mapper(mosaicConfig(o).geometry);
        CandidateSink sink(mapper, tracer);
        rowWorkload(row, o)->run(sink);
        sink.flush();
        keys += sink.keys();
    }
    m["hash.candidates_ns"] =
        1e9 * tracer.totalSeconds("hash.candidatesMany") /
        static_cast<double>(keys);

    // workloads: each row generates its workload twice (once per VM).
    const double gen_s = 2.0 * tracer.totalSeconds("workloads.run");
    const double cell_s =
        tracer.totalSeconds("core.runTable4") / traced_rounds;
    m["workloads.runs"] = 2.0 * numRows;
    m["workloads.gen_s"] = gen_s;
    m["workloads.gen_share"] = gen_s / cell_s;
}

} // namespace

RunResult
runTable4Swap(const Options &opts, Tracer *tracer)
{
    RunResult result;
    ThreadPool pool(opts.threads);

    // Count each row's references: one stream per row, consumed by
    // both VMs. Outside the timed phase; in a traced run these spans
    // are the workloads layer's generation cost.
    std::uint64_t refs = 0;
    for (std::size_t row = 0; row < numRows; ++row) {
        ScopedSpan span(tracer, "workloads.run");
        CountingSink sink;
        rowWorkload(row, rowOptions(opts.seed, row))->run(sink);
        refs += sink.accesses();
    }
    const double touches = 2.0 * static_cast<double>(refs);

    RoundLog log(opts);
    std::vector<std::uint64_t> swaps;
    while (log.more()) {
        // Set-up: the engines and VMs the ladder's cells construct.
        const std::int64_t setup_start = nowNs();
        for (std::size_t row = 0; row < numRows; ++row) {
            const Table4Options o = rowOptions(opts.seed, row);
            (void)rowWorkload(row, o);
            LinuxVm linux_vm(linuxConfig(o));
            MosaicVm mosaic_vm(mosaicConfig(o));
        }
        const double setup_s = secondsSince(setup_start);

        const bool traced = log.nextTraced();
        Tracer *t = traced ? tracer : nullptr;
        std::vector<Table4Row> rows(numRows);
        const std::int64_t start = nowNs();
        {
            ScopedSpan round_span(t, "table4.round");
            parallelFor(pool, numRows, [&](std::size_t row) {
                ScopedSpan span(t, "core.runTable4", round_span.id());
                rows[row] = runTable4(rowKind(row),
                                      rowOptions(opts.seed, row), pool);
            });
        }
        const double seconds = secondsSince(start);

        const std::vector<std::uint64_t> round_swaps = swapList(rows);
        if (swaps.empty())
            swaps = round_swaps;
        result.check(round_swaps == swaps,
                     "table4: round " + std::to_string(log.rounds()) +
                         " differs from round 0");
        result.attempted += numRows;
        log.add(setup_s, seconds, touches / seconds, traced);
    }
    log.finish(result);
    result.metrics["workloads.refs"] = touches;

    double linux_io = 0.0, mosaic_io = 0.0;
    for (std::size_t i = 0; i + 1 < swaps.size(); i += 2) {
        linux_io += static_cast<double>(swaps[i]);
        mosaic_io += static_cast<double>(swaps[i + 1]);
    }
    result.metrics["swap_cut_pct"] =
        100.0 * (linux_io - mosaic_io) / linux_io;
    result.outputs["table4.swap_io"] = swaps;
    result.outputs["table4.touches"] = {static_cast<std::uint64_t>(touches)};

    std::printf("table4_swap: %zu frames, %zu rows (3 workloads x %u "
                "ladder steps), %u rounds, %.0f touches per round\n",
                memFrames, numRows, steps, log.rounds(), touches);

    if (tracer)
        traceLayers(opts.seed, pool, *tracer, swaps, log.tracedRounds(),
                    result);
    return result;
}

} // namespace perfbench
