/**
 * @file
 * Differential fuzzing of the virtual-memory subsystems: random
 * generated traces drive LinuxVm and MosaicVm (every sharing mode and
 * eviction policy the generator emits) in lockstep with the oracle
 * models, asserting zero divergences. Budgets are overridable with
 * MOSAIC_FUZZ_SEEDS / MOSAIC_FUZZ_OPS (CI runs much larger sweeps
 * than the local default).
 */

#include "fuzz_test_util.hh"

#include <gtest/gtest.h>

#include "oracle/fuzzer.hh"
#include "oracle/trace.hh"

using namespace mosaic;
using namespace mosaic::fuzztest;

TEST(FuzzVm, GeneratedSeedsPass)
{
    const std::uint64_t seeds = seedBudget();
    const std::uint64_t ops = opBudget();
    for (std::uint64_t s = 1; s <= seeds; ++s)
        expectSeedPasses("vm", s, ops);
}

// The generator picks LinuxVm with p = 0.25; pin a handful of seeds
// of each kind so both subsystems are exercised even at tiny budgets.
TEST(FuzzVm, CoversBothVmKinds)
{
    unsigned linux_traces = 0, mosaic_traces = 0;
    for (std::uint64_t s = 1; s <= 16; ++s) {
        const Trace t = generateTrace("vm", s, 16);
        if (t.cfgValue("kind") == "linux")
            ++linux_traces;
        else
            ++mosaic_traces;
    }
    EXPECT_GT(linux_traces, 0u);
    EXPECT_GT(mosaic_traces, 0u);
}

// Regression: the sharer-adoption path of MosaicVm::touch rescued
// resident ghost frames without counting the rescue, so ghostPages()
// and stats().ghostRescues drifted apart under LocationId sharing.
// These traces were minimized from fuzzer-found divergences. The
// repeat_touch_hint ones are hand-written: runs of touches of one page
// broken by a conflict that hands its frame to another page, an
// unmap, a sharer adoption and a ghost rescue (mosaic), or by reclaim
// and unmaps (linux), since a repeat touch may skip the walk.
TEST(FuzzVm, GhostRescueAdoptionRegression)
{
    for (const char *name :
         {"/ghost_rescue_adoption.trace",
          "/ghost_rescue_adoption_long.trace",
          "/repeat_touch_hint.trace", "/repeat_touch_hint_linux.trace"}) {
        const Trace trace =
            readTraceFile(std::string(MOSAIC_FUZZ_CORPUS_DIR) + name);
        const FuzzResult result = runTrace(trace);
        EXPECT_FALSE(result.divergence.has_value())
            << name << ": " << result.divergence->message;
    }
}

// The shrinker must return a passing trace unchanged and keep shrunk
// traces diverging (exercised here on a synthetic harness check by
// shrinking a passing trace — the identity case).
TEST(FuzzVm, ShrinkIsIdentityOnPassingTraces)
{
    const Trace trace = generateTrace("vm", 1, 200);
    ASSERT_FALSE(runTrace(trace).divergence.has_value());
    const Trace same = shrinkTrace(trace);
    EXPECT_EQ(serializeTrace(same), serializeTrace(trace));
}
