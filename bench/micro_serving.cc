/**
 * @file
 * Microbenchmarks for the serving hot path (DESIGN.md §16): the
 * SPSC ring transfer, the admission controller's decision cost, the
 * latency histogram's record path, and the full accept path
 * (admission + WAL append/flush + ring push) against a log in the
 * temp directory. The ring and admission numbers bound what the
 * daemon can ever serve; the accept-path number shows what the
 * durability costs: a checksum and a store into the memory-mapped
 * log, plus one preallocation step per 64 KiB of records.
 */

#include <benchmark/benchmark.h>

#include "bench_gbench.hh"

#include <filesystem>
#include <thread>

#include "core/request_log.hh"
#include "serve/admission.hh"
#include "serve/ring.hh"
#include "telemetry/histogram.hh"
#include "util/random.hh"

namespace
{

using namespace mosaic;
using namespace mosaic::serve;

// ------------------------------------------------------------ ring

void
BM_RingPushPopSingleThread(benchmark::State &state)
{
    SpscRing<LogRecord> ring(256);
    LogRecord rec{LogRecordKind::Translate, false, 0, 0x4000};
    LogRecord out;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ring.tryPush(rec));
        benchmark::DoNotOptimize(ring.tryPop(&out));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingPushPopSingleThread);

/** The real shape: one producer thread against one consumer. */
void
BM_RingCrossThreadTransfer(benchmark::State &state)
{
    SpscRing<std::uint64_t> ring(1024);
    constexpr std::uint64_t items = 1 << 15;
    for (auto _ : state) {
        std::thread consumer([&ring] {
            std::uint64_t v;
            std::uint64_t seen = 0;
            while (seen < items) {
                if (ring.tryPop(&v))
                    ++seen;
            }
        });
        for (std::uint64_t i = 0; i < items;) {
            if (ring.tryPush(i))
                ++i;
        }
        consumer.join();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * items));
}
BENCHMARK(BM_RingCrossThreadTransfer);

// ------------------------------------------------------- admission

void
BM_AdmissionDecision(benchmark::State &state)
{
    fault::FaultInjector injector;
    AdmissionController admission(
        0, TokenBucket(1u << 20, 1000));
    ShedClass cls{};
    std::uint64_t accepted = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            admission.admit(accepted++, injector, &cls));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdmissionDecision);

void
BM_LatencyHistogramRecord(benchmark::State &state)
{
    telemetry::LatencyHistogram hist;
    Rng rng(7);
    std::uint64_t v = rng();
    for (auto _ : state) {
        v = v * 2862933555777941757ull + 3037000493ull;
        hist.record(v >> 40);
    }
    benchmark::DoNotOptimize(hist.count());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyHistogramRecord);

// ------------------------------------------------- the accept path

/** Admission + WAL append/flush + ring push, the whole durable
 *  accept, against a temp-file log. */
void
BM_AcceptPathDurable(benchmark::State &state)
{
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() / "micro_serving.log").string();
    fs::remove(path);
    RequestLogWriter log;
    if (!log.open(path, "micro_serving v1").ok())
        state.SkipWithError("cannot open temp log");
    fault::FaultInjector injector;
    AdmissionController admission(0, TokenBucket(0, 0));
    SpscRing<LogRecord> ring(1u << 16);
    ShedClass cls{};
    std::uint64_t seq = 0;
    LogRecord out;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            admission.admit(seq, injector, &cls));
        const LogRecord rec{LogRecordKind::Translate, false, seq,
                            0x4000 + seq * 64};
        if (!log.append(rec).ok() || !log.flush().ok())
            state.SkipWithError("log append failed");
        ring.tryPush(rec);
        ring.tryPop(&out);
        ++seq;
    }
    state.SetItemsProcessed(state.iterations());
    log.close();
    fs::remove(path);
}
BENCHMARK(BM_AcceptPathDurable);

} // namespace

MOSAIC_GBENCH_MAIN("micro_serving");
