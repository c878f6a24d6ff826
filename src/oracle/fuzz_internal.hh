/**
 * @file
 * Private to the fuzzer's translation units: fuzzer.cc (runTrace,
 * generateTrace and shrinkTrace) and one fuzz_<component>.cc per
 * component (fuzz_tlb.cc, fuzz_vm.cc, fuzz_shard.cc), each holding
 * that component's harness and generators. This header shares the
 * digest, the payload mixing functions, the divergence helpers, the
 * op loop every harness runs in, and the entry points each
 * component file gives runTrace and generateTrace.
 */

#ifndef MOSAIC_ORACLE_FUZZ_INTERNAL_HH_
#define MOSAIC_ORACLE_FUZZ_INTERNAL_HH_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "oracle/fuzzer.hh"
#include "oracle/trace.hh"
#include "os/mosaic_vm.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace mosaic::fuzz
{

// ----------------------------------------------------------- helpers

/** FNV-1a accumulator over 64-bit words. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        h ^= v;
        h *= 1099511628211ull;
    }
};

/** splitmix64-style finalizer: the pure mixing primitive every
 *  derived payload is built from, so fill values depend only on the
 *  trace, never on ambient state. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

inline std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    return mix64(a ^ mix64(b));
}

inline std::uint64_t
mix(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return mix64(mix(a, b) ^ mix64(c));
}

inline std::uint64_t
mix(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d)
{
    return mix64(mix(a, b, c) ^ mix64(d));
}

using MaybeDivergence = std::optional<FuzzDivergence>;

inline MaybeDivergence
diverge(std::size_t idx, std::string msg)
{
    return FuzzDivergence{idx, std::move(msg)};
}

inline std::string
pageStr(Asid asid, Vpn vpn)
{
    return "(" + std::to_string(asid) + "," + std::to_string(vpn) + ")";
}

/**
 * Apply every op of @p trace to @p harness until the first
 * divergence, folding outcomes into @p dg and counts into @p res.
 */
template <typename Harness>
void
drive(const Trace &trace, Harness &harness, Digest &dg, FuzzResult &res)
{
    for (std::size_t i = 0; i < trace.ops.size(); ++i) {
        bool applied = false;
        MaybeDivergence bad =
            harness.apply(trace.ops[i], i, &applied, dg);
        if (applied)
            ++res.opsApplied;
        if (bad) {
            res.divergence = std::move(bad);
            return;
        }
    }
}

/** Trace -> MosaicVmConfig; the vm and vm-shard harnesses share it. */
MosaicVmConfig mosaicVmCfgFromTrace(const Trace &t);

// Component runners: build the harness and drive the trace.
// fuzz_tlb.cc, fuzz_vm.cc and fuzz_shard.cc.
void runTlbTrace(const Trace &trace, Digest &dg, FuzzResult &res);
void runVmTrace(const Trace &trace, Digest &dg, FuzzResult &res);
void runShardTrace(const Trace &trace, Digest &dg, FuzzResult &res);

// Generators, one per trace family.
Trace generateTlb(Rng &rng, std::size_t numOps);
Trace generateDesignTlb(Rng &rng, std::size_t numOps, const char *kind);
Trace generateLinuxVm(Rng &rng, std::size_t numOps);
Trace generateMosaicVm(Rng &rng, std::size_t numOps);
Trace generateShardedVm(Rng &rng, std::size_t numOps);
Trace generateWorkloadVm(Rng &rng, std::size_t numOps,
                         std::string_view kind);

} // namespace mosaic::fuzz

#endif // MOSAIC_ORACLE_FUZZ_INTERNAL_HH_
