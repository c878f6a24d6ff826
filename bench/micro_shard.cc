/**
 * @file
 * Microbenchmarks for the sharded VM engine (DESIGN.md §17): the
 * Lemire route itself and the resident-touch hot path at 1 and 8
 * shards (the sharding tax on the common case).
 */

#include <benchmark/benchmark.h>

#include "bench_gbench.hh"

#include "mem/shard_view.hh"
#include "os/sharded_vm.hh"

namespace
{

using namespace mosaic;

ShardedVmConfig
shardedConfig(std::size_t shards, std::size_t frames_per_shard)
{
    ShardedVmConfig c;
    c.base.geometry.numFrames = shards * frames_per_shard;
    c.shards = shards;
    return c;
}

void
BM_ShardRoute(benchmark::State &state)
{
    std::uint32_t asid = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            shardRoute(static_cast<Asid>(asid), 8));
        ++asid;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardRoute);

void
BM_ShardTouchResident(benchmark::State &state)
{
    // The hot path at N shards: every touch routes to its home shard
    // and hits a resident page there.
    // Compare the /1 and /8 series for the sharding tax over a plain
    // MosaicVm (micro_vm's BM_MosaicVmTouchResident).
    const auto shards = static_cast<std::size_t>(state.range(0));
    ShardedMosaicVm vm(shardedConfig(shards, 64 * 64));
    constexpr std::size_t tenants = 64;
    constexpr Vpn per_tenant = 64;
    for (Asid a = 1; a <= tenants; ++a) {
        for (Vpn v = 0; v < per_tenant; ++v)
            vm.touch(a, v, true);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const auto a =
            static_cast<Asid>(1 + (i % tenants));
        benchmark::DoNotOptimize(
            vm.touch(a, Vpn{(i / tenants) % per_tenant}, false));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardTouchResident)->Arg(1)->Arg(8);

} // namespace

MOSAIC_GBENCH_MAIN("micro_shard");
