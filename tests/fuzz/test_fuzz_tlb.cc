/**
 * @file
 * Differential fuzzing of every registry design kind against its
 * reference model (oracle/oracle_designs.hh): the cached translation
 * before every access and every forEachDesignMetric metric after
 * every op must agree.
 *
 * Beyond the random sweep, the pinned tests run every
 * translationDesignKinds() kind regardless of the seed budget, so a
 * registry kind without a reference model fails at once. Below them,
 * the shared array itself runs against its reference slot by slot.
 */

#include "fuzz_test_util.hh"

#include <gtest/gtest.h>

#include <string>

#include "oracle/fuzzer.hh"
#include "oracle/oracle_designs.hh"
#include "oracle/trace.hh"
#include "tlb/design_registry.hh"
#include "tlb/set_assoc.hh"
#include "util/random.hh"

using namespace mosaic;
using namespace mosaic::fuzztest;

TEST(FuzzTlb, GeneratedSeedsPass)
{
    const std::uint64_t seeds = seedBudget();
    const std::uint64_t ops = opBudget();
    for (std::uint64_t s = 1; s <= seeds; ++s)
        expectSeedPasses("tlb", s, ops);
}

namespace
{

/** Run a generated tlb trace re-pinned to @p kind; @p ways = 0 keeps
 *  the generated geometry, anything else sets ways x ways. */
void
runPinned(const char *kind, std::uint64_t seed, unsigned ways = 0)
{
    Trace trace = generateTrace("tlb", seed, opBudget(2000));
    trace.setCfg("kind", kind);
    if (ways != 0) {
        trace.setCfgUint("entries", ways);
        trace.setCfgUint("ways", ways);
    }
    const FuzzResult result = runTrace(trace);
    EXPECT_FALSE(result.divergence.has_value())
        << kind << " seed " << seed << " diverged at op "
        << result.divergence->opIndex << ": "
        << result.divergence->message;
    EXPECT_GT(result.opsApplied, 0u) << kind << " seed " << seed;
}

/** Pin the first four generated seeds to @p kind. */
void
runPinnedSeeds(const char *kind)
{
    for (std::uint64_t s = 1; s <= 4; ++s)
        runPinned(kind, s);
}

/** The four TLB kinds the paper compares, each pinned by its own test. */
bool
isPaperTlbKind(const std::string &kind)
{
    return kind == "vanilla" || kind == "mosaic" || kind == "coalesced" ||
           kind == "perforated";
}

} // namespace

TEST(FuzzTlb, VanillaPinned)
{
    runPinnedSeeds("vanilla");
}

TEST(FuzzTlb, MosaicPinned)
{
    runPinnedSeeds("mosaic");
}

TEST(FuzzTlb, CoalescedPinned)
{
    runPinnedSeeds("coalesced");
}

TEST(FuzzTlb, PerforatedPinned)
{
    runPinnedSeeds("perforated");
}

// Every other registry kind, so a kind added without a reference
// model fails here at once.
TEST(FuzzTlb, OtherKindsPinned)
{
    for (const char *kind : translationDesignKinds())
        if (!isPaperTlbKind(kind))
            runPinnedSeeds(kind);
}

// A fully-associative geometry stresses the recency-order modelling
// hardest: one set, every entry competes on pure LRU order.
TEST(FuzzTlb, FullyAssociativePinned)
{
    for (const char *kind : translationDesignKinds())
        runPinned(kind, 99, 16);
}

namespace
{

/**
 * SetAssocArray against OracleSetAssoc, op by op, at one geometry
 * (1024 entries): both must claim the same way with the same evicted
 * flag on every allocate, and agree on every find, invalidate and
 * valid-entry count. The mix includes duplicate-tag allocates, so
 * the first-match and survivor rules are checked too. 16 and 64 ways
 * run the indexed mode over several sets, 1024 over one.
 */
class SetAssocVsOracle : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SetAssocVsOracle, SameVictimsAndLookups)
{
    const TlbGeometry geometry{1024, GetParam()};
    SetAssocArray<int> real(geometry);
    OracleSetAssoc<int> oracle(geometry);
    Rng rng(GetParam());
    // Two tags per entry, so sets overflow and evict. A tag is its
    // own index key, so it determines its set.
    const std::uint64_t tags = 2 * geometry.entries;
    int serial = 0;
    unsigned evictions = 0, duplicates = 0, shootdowns = 0;

    const auto allocate = [&](std::uint64_t tag, std::uint64_t op) {
        bool real_evicted = false, oracle_evicted = false;
        unsigned oracle_way = 0;
        auto &e = real.allocate(tag, tag, &real_evicted);
        int &p = oracle.allocate(tag, tag, &oracle_evicted, &oracle_way);
        EXPECT_EQ(real_evicted, oracle_evicted) << "op " << op;
        EXPECT_EQ(real.wayOf(e), oracle_way) << "op " << op;
        e.payload = p = ++serial;
        evictions += real_evicted ? 1 : 0;
    };

    for (std::uint64_t op = 0; op < 30000; ++op) {
        const std::uint64_t tag = rng.below(tags);
        // Flush twice, once the array has filled and evicted.
        const unsigned kind = op % 10000 == 9999
                                  ? 5
                                  : rng.pickWeighted({40, 40, 4, 4, 0.02});
        switch (kind) {
          case 0: { // lookup
            const auto *e = real.find(tag, tag);
            const int *p = oracle.find(tag, tag);
            ASSERT_EQ(e != nullptr, p != nullptr) << "op " << op;
            if (e) {
                ASSERT_EQ(e->payload, *p) << "op " << op;
            }
            break;
          }
          case 1: // fill on a miss, as the TLBs do
            if (!real.peek(tag, tag))
                allocate(tag, op);
            break;
          case 2: // duplicate fill of a resident tag
            if (real.peek(tag, tag)) {
                allocate(tag, op);
                ++duplicates;
            }
            break;
          case 3:
            ASSERT_EQ(real.invalidate(tag, tag),
                      oracle.invalidate(tag, tag))
                << "op " << op;
            break;
          case 4: { // a shootdown of a tag class
            const std::uint64_t r = rng.below(5) + 2;
            const auto pred = [r](std::uint64_t t, int) {
                return t % r == 0;
            };
            ASSERT_EQ(real.invalidateIf(pred), oracle.invalidateIf(pred))
                << "op " << op;
            ++shootdowns;
            break;
          }
          default:
            real.flush();
            oracle.invalidateIf([](std::uint64_t, int) { return true; });
            break;
        }
        ASSERT_EQ(real.validEntries(), oracle.validEntries())
            << "op " << op;
        ASSERT_FALSE(HasFailure()) << "op " << op;
    }
    EXPECT_GT(evictions, 1000u);
    EXPECT_GT(duplicates, 100u);
    EXPECT_GT(shootdowns, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, SetAssocVsOracle,
                         ::testing::Values(16u, 64u, 1024u));

} // namespace
