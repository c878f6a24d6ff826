/**
 * @file
 * Chaos replay: the fuzz corpus, re-run under a fixed fault plan
 * (DESIGN.md §11). Every degradation contract — swap I/O retries,
 * vm.place ghost-reclaim recovery — keeps the real component and
 * its oracle in lockstep, so injected faults must produce zero
 * divergences: any divergence under injection is silent corruption
 * the clean suite cannot see.
 *
 * Also pins the determinism story under faults: same trace + same
 * plan = same digest and fault count, run after run (the serial vs
 * multi-threaded invariance is CI's chaos job, which diffs
 * mosaic_replay --digest output at MOSAIC_THREADS=1 and =4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "oracle/fuzzer.hh"
#include "oracle/trace.hh"

using namespace mosaic;
namespace fs = std::filesystem;

namespace
{

// Aggressive enough to fire on every corpus component, deterministic
// via every= rules; p= rules stay seed-stable per trace.
constexpr const char *chaosPlan =
    "swap.write:every=50;swap.read:every=70;swap.latency:every=97;"
    "vm.place:every=40";

std::vector<fs::path>
corpusTraces()
{
    std::vector<fs::path> paths;
    for (const auto &entry :
         fs::directory_iterator(MOSAIC_FUZZ_CORPUS_DIR))
        if (entry.path().extension() == ".trace")
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    return paths;
}

/** Applies the chaos plan for one test body, restoring on exit. */
class ChaosEnv
{
  public:
    ChaosEnv() { ::setenv("MOSAIC_FAULTS", chaosPlan, 1); }
    ~ChaosEnv() { ::unsetenv("MOSAIC_FAULTS"); }
};

} // namespace

TEST(FuzzChaos, CorpusSurvivesInjectionWithoutDivergence)
{
    const ChaosEnv chaos;
    std::uint64_t total_injected = 0;
    for (const fs::path &path : corpusTraces()) {
        const Trace trace = readTraceFile(path.string());
        const FuzzResult result = runTrace(trace);
        EXPECT_FALSE(result.divergence.has_value())
            << path.filename().string()
            << " diverged under fault injection at op "
            << result.divergence->opIndex << ": "
            << result.divergence->message;
        EXPECT_GT(result.opsApplied, 0u) << path.filename().string();
        total_injected += result.faultsInjected;
    }
    // The plan must actually exercise the corpus: a zero here means
    // the chaos suite silently became a no-op.
    EXPECT_GT(total_injected, 0u);
}

TEST(FuzzChaos, InjectionIsDeterministicPerTrace)
{
    const ChaosEnv chaos;
    for (const fs::path &path : corpusTraces()) {
        const Trace trace = readTraceFile(path.string());
        const FuzzResult a = runTrace(trace);
        const FuzzResult b = runTrace(trace);
        EXPECT_EQ(a.digest, b.digest) << path.filename().string();
        EXPECT_EQ(a.faultsInjected, b.faultsInjected)
            << path.filename().string();
        EXPECT_EQ(a.opsApplied, b.opsApplied)
            << path.filename().string();
    }
}

TEST(FuzzChaos, CleanRunsReportZeroFaultsAndOriginalDigest)
{
    // Guard the zero-overhead contract: with no plan, faultsInjected
    // is 0 and the digest matches a second clean run (the byte-level
    // clean-vs-pre-PR comparison is CI's determinism job).
    for (const fs::path &path : corpusTraces()) {
        const Trace trace = readTraceFile(path.string());
        const FuzzResult clean = runTrace(trace);
        EXPECT_EQ(clean.faultsInjected, 0u)
            << path.filename().string();
        const FuzzResult again = runTrace(trace);
        EXPECT_EQ(clean.digest, again.digest)
            << path.filename().string();
    }
}

TEST(FuzzChaos, InjectionChangesVmDigestsButNotCorrectness)
{
    // The fault plan must actually perturb execution for components
    // with faultable sites (vm traces consult swap + placement
    // sites): an identical digest would mean injection never
    // reached the component.
    std::uint64_t differing = 0;
    for (const fs::path &path : corpusTraces()) {
        if (path.filename().string().rfind("vm_", 0) != 0)
            continue;
        const Trace trace = readTraceFile(path.string());
        const FuzzResult clean = runTrace(trace);
        const ChaosEnv chaos;
        const FuzzResult faulty = runTrace(trace);
        EXPECT_FALSE(faulty.divergence.has_value())
            << path.filename().string();
        if (faulty.faultsInjected > 0 && faulty.digest != clean.digest)
            ++differing;
    }
    EXPECT_GT(differing, 0u);
}

TEST(FuzzChaos, GeneratedTracesSurviveInjection)
{
    const ChaosEnv chaos;
    for (const char *component : {"vm", "tlb"}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            const Trace trace = generateTrace(component, seed, 2000);
            const FuzzResult result = runTrace(trace);
            EXPECT_FALSE(result.divergence.has_value())
                << component << " seed " << seed << ": "
                << (result.divergence
                        ? result.divergence->message
                        : std::string());
        }
    }
}
