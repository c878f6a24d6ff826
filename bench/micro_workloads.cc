/**
 * @file
 * Microbenchmarks for the workload engines themselves: reference-
 * stream generation throughput per workload. This bounds the whole
 * simulator's wall-clock (the TLB grid consumes whatever the engines
 * can emit) and documents the cost of trace recording.
 */

#include <benchmark/benchmark.h>

#include "bench_gbench.hh"

#include "workloads/factory.hh"
#include "workloads/trace_file.hh"

namespace
{

using namespace mosaic;

/** A sink that defeats dead-code elimination and nothing else. */
class NullSink : public AccessSink
{
  public:
    void
    access(Addr vaddr, bool write) override
    {
        sum_ = sum_ + vaddr + (write ? 1 : 0);
    }

    volatile Addr sum_ = 0;
};

void
runKind(benchmark::State &state, WorkloadKind kind)
{
    const auto workload = makeFig6Workload(kind, 1.0 / 64, 5);
    // Measure emitted references per second, amortizing re-runs.
    std::uint64_t refs = 0;
    for (auto _ : state) {
        NullSink sink;
        workload->run(sink);
        benchmark::DoNotOptimize(sink.sum_);
        state.PauseTiming();
        CountingSink counter;
        workload->run(counter);
        refs = counter.accesses();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(refs));
}

void
BM_Graph500Stream(benchmark::State &state)
{
    runKind(state, WorkloadKind::Graph500);
}
BENCHMARK(BM_Graph500Stream)->Unit(benchmark::kMillisecond);

void
BM_Graph500Build(benchmark::State &state)
{
    // Construction only: R-MAT generation, relabeling and the CSR.
    for (auto _ : state) {
        const auto workload =
            makeFig6Workload(WorkloadKind::Graph500, 1.0 / 64, 5);
        benchmark::DoNotOptimize(workload->info().footprintBytes);
    }
}
BENCHMARK(BM_Graph500Build)->Unit(benchmark::kMillisecond);

void
BM_BTreeStream(benchmark::State &state)
{
    runKind(state, WorkloadKind::BTree);
}
BENCHMARK(BM_BTreeStream)->Unit(benchmark::kMillisecond);

void
BM_GupsStream(benchmark::State &state)
{
    runKind(state, WorkloadKind::Gups);
}
BENCHMARK(BM_GupsStream)->Unit(benchmark::kMillisecond);

void
BM_XsBenchStream(benchmark::State &state)
{
    runKind(state, WorkloadKind::XsBench);
}
BENCHMARK(BM_XsBenchStream)->Unit(benchmark::kMillisecond);

void
BM_KvStoreStream(benchmark::State &state)
{
    runKind(state, WorkloadKind::KvStore);
}
BENCHMARK(BM_KvStoreStream)->Unit(benchmark::kMillisecond);

void
BM_WarpStream(benchmark::State &state)
{
    runKind(state, WorkloadKind::WarpGpu);
}
BENCHMARK(BM_WarpStream)->Unit(benchmark::kMillisecond);

void
BM_KvServerStream(benchmark::State &state)
{
    runKind(state, WorkloadKind::KvServer);
}
BENCHMARK(BM_KvServerStream)->Unit(benchmark::kMillisecond);

void
BM_WebSessionStream(benchmark::State &state)
{
    runKind(state, WorkloadKind::WebSession);
}
BENCHMARK(BM_WebSessionStream)->Unit(benchmark::kMillisecond);

void
BM_ScanAnalyticsStream(benchmark::State &state)
{
    runKind(state, WorkloadKind::ScanAnalytics);
}
BENCHMARK(BM_ScanAnalyticsStream)->Unit(benchmark::kMillisecond);

void
BM_TraceRecordReplay(benchmark::State &state)
{
    const auto workload =
        makeFig6Workload(WorkloadKind::Gups, 1.0 / 64, 5);
    const std::string path =
        "/tmp/mosaic_micro_trace.trc";
    for (auto _ : state) {
        {
            TraceWriter writer(path);
            workload->run(writer);
        }
        TraceReader reader(path);
        NullSink sink;
        benchmark::DoNotOptimize(reader.replay(sink));
    }
    std::remove(path.c_str());
}
BENCHMARK(BM_TraceRecordReplay)->Unit(benchmark::kMillisecond);

} // namespace

MOSAIC_GBENCH_MAIN("micro_workloads");
