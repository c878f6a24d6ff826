/**
 * @file
 * Microbenchmarks for the hashing layer: tabulation hashing (single
 * and 7-way probed, the TLB-path configuration), xxHash64, the
 * fmix64 mixer, and the batched candidate sweep (probeAllMany, the
 * engine of MosaicMapper::candidatesMany) against its per-key twin.
 * Throughput here bounds how fast software-side page allocation can
 * compute candidate buckets.
 */

#include <benchmark/benchmark.h>

#include "bench_gbench.hh"

#include <array>
#include <vector>

#include "hash/mix.hh"
#include "hash/tabulation.hh"
#include "hash/xxhash64.hh"
#include "util/random.hh"

namespace
{

void
BM_TabulationSingle(benchmark::State &state)
{
    const mosaic::TabulationHash hash(1);
    std::uint64_t key = 0x1234;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hash.hash(key));
        key += 0x9E3779B97F4A7C15ull;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TabulationSingle);

void
BM_TabulationProbed7(benchmark::State &state)
{
    const mosaic::TabulationHash hash(1);
    std::array<std::uint32_t, 7> out;
    std::uint64_t key = 0x1234;
    for (auto _ : state) {
        hash.hashMany(key, out);
        benchmark::DoNotOptimize(out);
        key += 0x9E3779B97F4A7C15ull;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TabulationProbed7);

void
BM_XxHash64Word(benchmark::State &state)
{
    std::uint64_t key = 0x1234;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mosaic::xxhash64(key));
        key += 0x9E3779B97F4A7C15ull;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XxHash64Word);

void
BM_XxHash64Buffer(benchmark::State &state)
{
    std::vector<unsigned char> buf(
        static_cast<std::size_t>(state.range(0)), 0xAB);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            mosaic::xxhash64(buf.data(), buf.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_XxHash64Buffer)->Arg(16)->Arg(256)->Arg(4096);

void
BM_Mix64(benchmark::State &state)
{
    std::uint64_t key = 0x1234;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mosaic::mix64(key));
        key += 0x9E3779B97F4A7C15ull;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Mix64);

constexpr unsigned kBlock = 64;

/** Batched candidate hashing: one probeAllMany sweep per block vs a
 *  probeAll call per key, at the mapper's probe width. */
void
BM_BatchHashProbeScalar(benchmark::State &state)
{
    mosaic::TabulationHash h(42);
    mosaic::Rng rng(7);
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
    mosaic::TabulationHash h(42);
    mosaic::Rng rng(7);
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

MOSAIC_GBENCH_MAIN("micro_hash");
