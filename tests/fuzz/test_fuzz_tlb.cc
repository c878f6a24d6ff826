/**
 * @file
 * Differential fuzzing of every TLB variant (vanilla, mosaic,
 * coalesced, perforated) against the recency-list oracle models:
 * lookup results, all stats counters, valid-entry counts, and the
 * variant-specific extras must agree after every operation.
 *
 * This is the oracle cross-check coverage for PerforatedTlb and
 * CoalescedTlb: beyond the random sweep, pinned-kind tests guarantee
 * each variant is exercised regardless of the seed budget. Below
 * them, the shared array itself runs against its reference slot by
 * slot.
 */

#include "fuzz_test_util.hh"

#include <gtest/gtest.h>

#include "oracle/fuzzer.hh"
#include "oracle/oracle_tlb.hh"
#include "oracle/trace.hh"
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

/** Run a generated trace re-pinned to one TLB kind. */
void
runPinnedKind(const std::string &kind, std::uint64_t seeds,
              std::uint64_t ops)
{
    for (std::uint64_t s = 1; s <= seeds; ++s) {
        Trace trace = generateTrace("tlb", s, ops);
        trace.setCfg("kind", kind);
        const FuzzResult result = runTrace(trace);
        if (result.divergence) {
            FAIL() << kind << " tlb seed " << s << " diverged at op "
                   << result.divergence->opIndex << ": "
                   << result.divergence->message;
        }
        EXPECT_GT(result.opsApplied, 0u);
    }
}

} // namespace

TEST(FuzzTlb, VanillaPinned)
{
    runPinnedKind("vanilla", 4, opBudget(2000));
}

TEST(FuzzTlb, MosaicPinned)
{
    runPinnedKind("mosaic", 4, opBudget(2000));
}

TEST(FuzzTlb, CoalescedPinned)
{
    runPinnedKind("coalesced", 4, opBudget(2000));
}

TEST(FuzzTlb, PerforatedPinned)
{
    runPinnedKind("perforated", 4, opBudget(2000));
}

// A fully-associative geometry stresses the recency-order modelling
// hardest: one set, every entry competes on pure LRU order.
TEST(FuzzTlb, FullyAssociativePinned)
{
    for (const char *kind :
         {"vanilla", "mosaic", "coalesced", "perforated"}) {
        Trace trace = generateTrace("tlb", 99, opBudget(2000));
        trace.setCfg("kind", kind);
        trace.setCfgUint("entries", 16);
        trace.setCfgUint("ways", 16);
        const FuzzResult result = runTrace(trace);
        EXPECT_FALSE(result.divergence.has_value())
            << kind << ": " << result.divergence->message;
    }
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
