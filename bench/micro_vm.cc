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
