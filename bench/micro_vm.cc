/**
 * @file
 * Microbenchmarks for the virtual-memory models: resident-page
 * touches (the hot path, with and without back-to-back repeats of
 * one page), first-touch fault/allocation cost, and
 * eviction-path cost under pressure, for both the mosaic VM and the
 * Linux-like baseline.
 */

#include <benchmark/benchmark.h>

#include "bench_gbench.hh"

#include <cstdint>
#include <vector>

#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"

namespace
{

using namespace mosaic;

MosaicVmConfig
mosaicConfig(std::size_t frames)
{
    MosaicVmConfig c;
    c.geometry.numFrames = frames;
    return c;
}

void
BM_MosaicVmTouchResident(benchmark::State &state)
{
    MosaicVm vm(mosaicConfig(64 * 256));
    constexpr Vpn ws = 4096;
    for (Vpn v = 0; v < ws; ++v)
        vm.touch(1, v, true);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm.touch(1, v, false));
        v = (v + 1) % ws;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MosaicVmTouchResident);

void
BM_MosaicVmTouchResidentBatched(benchmark::State &state)
{
    // The batched-pipeline twin of BM_MosaicVmTouchResident: the same
    // resident working set streamed through touchBatch in blocks of
    // 64 (DESIGN.md §13). Time is per touch, directly comparable to
    // the scalar series.
    MosaicVm vm(mosaicConfig(64 * 256));
    constexpr Vpn ws = 4096;
    for (Vpn v = 0; v < ws; ++v)
        vm.touch(1, v, true);
    constexpr unsigned block = 64;
    std::vector<PageTouch> touches(block);
    std::vector<Pfn> out(block);
    Vpn v = 0;
    for (auto _ : state) {
        for (unsigned i = 0; i < block; ++i) {
            touches[i] = PageTouch{1, v, false};
            v = (v + 1) % ws;
        }
        vm.touchBatch({touches.data(), block}, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * block);
}
BENCHMARK(BM_MosaicVmTouchResidentBatched);

void
BM_LinuxVmTouchResident(benchmark::State &state)
{
    LinuxVmConfig config;
    config.numFrames = 64 * 256;
    LinuxVm vm(config);
    constexpr Vpn ws = 4096;
    for (Vpn v = 0; v < ws; ++v)
        vm.touch(1, v, true);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm.touch(1, v, false));
        v = (v + 1) % ws;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinuxVmTouchResident);

/**
 * The repeat-touch path (DESIGN.md §12.1): the resident series'
 * working set, each page touched 8 times back to back, so 7 of 8
 * touches repeat the previous page and take the last-touch hint.
 */
template <typename Vm>
void
touchRepeat(benchmark::State &state, Vm &vm)
{
    constexpr Vpn ws = 4096;
    for (Vpn v = 0; v < ws; ++v)
        vm.touch(1, v, true);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm.touch(1, (i / 8) % ws, false));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_MosaicVmTouchRepeat(benchmark::State &state)
{
    MosaicVm vm(mosaicConfig(64 * 256));
    touchRepeat(state, vm);
}
BENCHMARK(BM_MosaicVmTouchRepeat);

void
BM_LinuxVmTouchRepeat(benchmark::State &state)
{
    LinuxVmConfig config;
    config.numFrames = 64 * 256;
    LinuxVm vm(config);
    touchRepeat(state, vm);
}
BENCHMARK(BM_LinuxVmTouchRepeat);

void
BM_MosaicVmFirstTouch(benchmark::State &state)
{
    // Faults on fresh pages at moderate load (iceberg placement +
    // page-table update per touch). Rebuild when memory fills.
    auto vm = std::make_unique<MosaicVm>(mosaicConfig(64 * 1024));
    Vpn v = 0;
    const Vpn cap = static_cast<Vpn>(vm->numFrames() * 9 / 10);
    for (auto _ : state) {
        if (v >= cap) {
            state.PauseTiming();
            vm = std::make_unique<MosaicVm>(mosaicConfig(64 * 1024));
            v = 0;
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(vm->touch(1, v++, true));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MosaicVmFirstTouch);

void
BM_MosaicVmEvictionPath(benchmark::State &state)
{
    // Steady-state overcommit: every touch misses and evicts.
    MosaicVm vm(mosaicConfig(64 * 64));
    const Vpn cycle = static_cast<Vpn>(vm.numFrames() * 2);
    for (Vpn v = 0; v < cycle; ++v)
        vm.touch(1, v, true);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm.touch(1, v, true));
        v = (v + 1) % cycle;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MosaicVmEvictionPath);

void
BM_LinuxVmEvictionPath(benchmark::State &state)
{
    LinuxVmConfig config;
    config.numFrames = 64 * 64;
    LinuxVm vm(config);
    const Vpn cycle = static_cast<Vpn>(vm.numFrames() * 2);
    for (Vpn v = 0; v < cycle; ++v)
        vm.touch(1, v, true);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm.touch(1, v, true));
        v = (v + 1) % cycle;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinuxVmEvictionPath);

} // namespace

MOSAIC_GBENCH_MAIN("micro_vm");
