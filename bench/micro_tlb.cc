/**
 * @file
 * Microbenchmarks for the TLB models: hit and miss-path costs of
 * the vanilla and mosaic TLBs across associativities, and ToC fill
 * cost across arities. These bound the simulator's throughput (the
 * Figure 6 sweep feeds every access to a grid of these).
 */

#include <benchmark/benchmark.h>

#include "bench_gbench.hh"

#include <vector>

#include "tlb/mosaic_tlb.hh"
#include "tlb/vanilla_tlb.hh"

namespace
{

using mosaic::Cpfn;
using mosaic::MosaicTlb;
using mosaic::TlbGeometry;
using mosaic::VanillaTlb;
using mosaic::Vpn;

void
BM_VanillaLookupHit(benchmark::State &state)
{
    const auto ways = static_cast<unsigned>(state.range(0));
    VanillaTlb tlb(TlbGeometry{1024, ways});
    for (Vpn v = 0; v < 512; ++v)
        tlb.fill(1, v, v);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(1, v));
        v = (v + 1) % 512;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VanillaLookupHit)->Arg(1)->Arg(4)->Arg(8)->Arg(1024);

void
BM_VanillaLookupMiss(benchmark::State &state)
{
    VanillaTlb tlb(TlbGeometry{1024, 4});
    Vpn v = 1 << 20;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(1, v));
        ++v; // never filled: always a miss
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VanillaLookupMiss);

void
BM_VanillaFillEvict(benchmark::State &state)
{
    // Always-miss fills into a full 1024-entry array: each one picks
    // and evicts the LRU way. The 1024-way run must stay O(1), within
    // a small factor of the 4-way scan (a perf-gate ratio).
    const auto ways = static_cast<unsigned>(state.range(0));
    VanillaTlb tlb(TlbGeometry{1024, ways});
    Vpn v = 0;
    for (; v < 1024; ++v)
        tlb.fill(1, v, v);
    for (auto _ : state) {
        tlb.fill(1, v, v);
        ++v; // never resident: every fill evicts
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VanillaFillEvict)->Arg(4)->Arg(1024);

void
BM_MosaicLookupHit(benchmark::State &state)
{
    const auto ways = static_cast<unsigned>(state.range(0));
    MosaicTlb tlb(TlbGeometry{1024, ways}, 4);
    const std::vector<Cpfn> toc(4, 9);
    for (Vpn v = 0; v < 2048; v += 4)
        tlb.fill(1, v, toc, 0x7F);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(1, v));
        v = (v + 1) % 2048;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MosaicLookupHit)->Arg(1)->Arg(4)->Arg(8)->Arg(1024);

void
BM_MosaicFillToc(benchmark::State &state)
{
    const auto arity = static_cast<unsigned>(state.range(0));
    MosaicTlb tlb(TlbGeometry{1024, 4}, arity);
    const std::vector<Cpfn> toc(arity, 9);
    Vpn v = 0;
    for (auto _ : state) {
        tlb.fill(1, v, toc, 0x7F);
        v += arity;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MosaicFillToc)->Arg(4)->Arg(16)->Arg(64);

void
BM_MosaicConventionalLookup(benchmark::State &state)
{
    MosaicTlb tlb(TlbGeometry{1024, 4}, 4);
    for (Vpn v = 0; v < 512; ++v)
        tlb.fillConventional(1, v, v);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookupConventional(1, v));
        v = (v + 1) % 512;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MosaicConventionalLookup);

} // namespace

MOSAIC_GBENCH_MAIN("micro_tlb");
