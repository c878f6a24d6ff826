/**
 * @file
 * Microbenchmarks for the batched VM touch pipeline (DESIGN.md
 * §13): scalar/batched pairs over working sets sized well past the
 * cache hierarchy, where the pipeline's wins live — batched
 * tabulation sweeps and prefetch-ahead of page-table and frame-table
 * lines. Each pair is gated in CI
 * by tools/perf_gate --max-ratio so the batched series must stay
 * decisively faster than its scalar twin.
 */

#include <benchmark/benchmark.h>

#include "bench_gbench.hh"

#include <memory>
#include <vector>

#include "os/mosaic_vm.hh"
#include "util/random.hh"

namespace
{

using namespace mosaic;

constexpr unsigned kBlock = 64;

// ------------------------------------------------------------ vm

/** A 1M-frame mosaic VM with a fully resident working set touched in
 *  random order: the hot resident-touch path under cache pressure.
 *  The frame table and ghost tracker take tens of MB; the page
 *  table's 192 Ki arity-4 ToCs take ~0.8 MB of leaves (arity bytes
 *  each) in 384 leaf nodes, plus three 4 KiB interior nodes. Random
 *  touches rarely stay in one leaf node, so walks here seldom take
 *  the radix tree's remembered-leaf shortcut. */
struct BigVm
{
    std::unique_ptr<MosaicVm> vm;
    std::vector<PageTouch> stream;

    BigVm()
    {
        MosaicVmConfig c;
        c.geometry.numFrames = std::size_t{64} << 14; // 1 Mi frames
        vm = std::make_unique<MosaicVm>(c);
        const Vpn ws = static_cast<Vpn>(c.geometry.numFrames * 3 / 4);
        for (Vpn v = 0; v < ws; ++v)
            vm->touch(1, v, true);
        Rng rng(1234);
        stream.resize(std::size_t{1} << 20);
        for (PageTouch &t : stream)
            t = PageTouch{1, rng.below(ws), false};
    }
};

BigVm &
bigVm()
{
    static BigVm fixture;
    return fixture;
}

void
BM_BatchVmTouchScalar(benchmark::State &state)
{
    BigVm &f = bigVm();
    std::size_t pos = 0;
    for (auto _ : state) {
        for (unsigned i = 0; i < kBlock; ++i) {
            const PageTouch &t = f.stream[pos];
            benchmark::DoNotOptimize(
                f.vm->touch(t.asid, t.vpn, t.write));
            pos = (pos + 1) % f.stream.size();
        }
    }
    state.SetItemsProcessed(state.iterations() * kBlock);
}
BENCHMARK(BM_BatchVmTouchScalar);

void
BM_BatchVmTouchBatched(benchmark::State &state)
{
    BigVm &f = bigVm();
    std::vector<Pfn> out(kBlock);
    std::size_t pos = 0;
    for (auto _ : state) {
        f.vm->touchBatch({&f.stream[pos], kBlock}, out.data());
        benchmark::DoNotOptimize(out.data());
        pos = (pos + kBlock) % f.stream.size();
    }
    state.SetItemsProcessed(state.iterations() * kBlock);
}
BENCHMARK(BM_BatchVmTouchBatched);

// The same pair at twice the pipeline depth: a deeper block sorts
// and prefetches more frame-table lines per flush, so this series
// gates the pipeline's scaling, not just its existence.
constexpr unsigned kDeepBlock = 128;

void
BM_BatchVmTouchScalar128(benchmark::State &state)
{
    BigVm &f = bigVm();
    std::size_t pos = 0;
    for (auto _ : state) {
        for (unsigned i = 0; i < kDeepBlock; ++i) {
            const PageTouch &t = f.stream[pos];
            benchmark::DoNotOptimize(
                f.vm->touch(t.asid, t.vpn, t.write));
            pos = (pos + 1) % f.stream.size();
        }
    }
    state.SetItemsProcessed(state.iterations() * kDeepBlock);
}
BENCHMARK(BM_BatchVmTouchScalar128);

void
BM_BatchVmTouchBatched128(benchmark::State &state)
{
    BigVm &f = bigVm();
    std::vector<Pfn> out(kDeepBlock);
    std::size_t pos = 0;
    for (auto _ : state) {
        f.vm->touchBatch({&f.stream[pos], kDeepBlock}, out.data());
        benchmark::DoNotOptimize(out.data());
        pos = (pos + kDeepBlock) % f.stream.size();
    }
    state.SetItemsProcessed(state.iterations() * kDeepBlock);
}
BENCHMARK(BM_BatchVmTouchBatched128);

// ---------------------------------------------------------- hash

/** Batched candidate hashing: one probeAllMany sweep per block vs a
 *  probeAll call per key, at the mapper's probe width. */
void
BM_BatchHashProbeScalar(benchmark::State &state)
{
    TabulationHash h(42);
    Rng rng(7);
    std::vector<std::uint64_t> keys(1 << 16);
    for (std::uint64_t &k : keys)
        k = rng();
    std::array<std::uint32_t, 7> out;
    std::size_t pos = 0;
    for (auto _ : state) {
        for (unsigned i = 0; i < kBlock; ++i) {
            h.probeAll(keys[pos], out);
            benchmark::DoNotOptimize(out.data());
            pos = (pos + 1) % keys.size();
        }
    }
    state.SetItemsProcessed(state.iterations() * kBlock);
}
BENCHMARK(BM_BatchHashProbeScalar);

void
BM_BatchHashProbeBatched(benchmark::State &state)
{
    TabulationHash h(42);
    Rng rng(7);
    std::vector<std::uint64_t> keys(1 << 16);
    for (std::uint64_t &k : keys)
        k = rng();
    std::vector<std::uint32_t> out(kBlock * 7);
    std::size_t pos = 0;
    for (auto _ : state) {
        h.probeAllMany({&keys[pos], kBlock}, 7, out.data());
        benchmark::DoNotOptimize(out.data());
        pos = (pos + kBlock) % keys.size();
    }
    state.SetItemsProcessed(state.iterations() * kBlock);
}
BENCHMARK(BM_BatchHashProbeBatched);

} // namespace

MOSAIC_GBENCH_MAIN("micro_batch");
