/**
 * @file
 * Differential fuzzing of the virtual-memory subsystems: random
 * generated traces drive LinuxVm and MosaicVm (every eviction policy
 * the generator emits) in lockstep with the oracle
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

// Regression traces for the repeat-touch hint, which lets a touch of
// the page touched last skip the walk. Both are hand-written: runs of
// touches of one page broken by a conflict that hands its frame to
// another page, an unmap and a ghost rescue (mosaic), or by reclaim
// and unmaps (linux). The name is kept from the minimized location-ID
// sharing traces it first replayed, which went with that mode.
TEST(FuzzVm, GhostRescueAdoptionRegression)
{
    for (const char *name :
         {"/repeat_touch_hint.trace", "/repeat_touch_hint_linux.trace"}) {
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

// A trace built in process never passes tryReadTraceFile's cfg check,
// so runTrace applies the same check: an unknown enum value fails the
// trace at op 0, naming key and value, instead of running a default
// policy or panicking in the harness.
void
expectCfgRefusedAtOpZero(const std::string &component,
                         const std::string &key, const std::string &value)
{
    Trace trace = generateTrace(component, 3, 50);
    trace.setCfg(key, value);
    const FuzzResult result = runTrace(trace);
    ASSERT_TRUE(result.divergence.has_value()) << component;
    EXPECT_EQ(result.divergence->opIndex, 0u);
    EXPECT_NE(result.divergence->message.find("cfg " + key + " " + value),
              std::string::npos)
        << result.divergence->message;
    EXPECT_EQ(result.opsApplied, 0u);
}

TEST(FuzzVm, InProcessUnknownPolicyIsRefusedAtOpZero)
{
    expectCfgRefusedAtOpZero("vm", "policy", "horizn");
    expectCfgRefusedAtOpZero("vm-shard", "policy", "horizn");
}

TEST(FuzzVm, InProcessUnknownKindIsRefusedAtOpZero)
{
    expectCfgRefusedAtOpZero("vm", "kind", "bogus");
    expectCfgRefusedAtOpZero("vm-shard", "kind", "bogus");
}
