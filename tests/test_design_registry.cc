/**
 * @file
 * The translation-design registry (DESIGN.md §14): spec-string round
 * trips for every registered kind, precise InvalidArgument reporting
 * for malformed specs, and behavioral checks of the three
 * Virtuoso-patterned designs (stride prefetcher, two-level page-walk
 * cache, range TLB) through a map-backed test walker.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "tlb/design_registry.hh"
#include "tlb/translation_design.hh"

using namespace mosaic;

namespace
{

/** Page tables as a plain map; cpfn derived from the pfn. */
class MapWalker final : public TranslationWalker
{
  public:
    void
    map(Asid asid, Vpn vpn, Pfn pfn)
    {
        pfns_[{asid, vpn}] = pfn;
    }

    std::optional<Pfn>
    pfnOf(Asid asid, Vpn vpn) override
    {
        const auto it = pfns_.find({asid, vpn});
        if (it == pfns_.end())
            return std::nullopt;
        return it->second;
    }

    void
    tocOf(Asid asid, Vpn vpn, unsigned arity,
          std::span<Cpfn> out) override
    {
        const Vpn first = vpn & ~Vpn{arity - 1};
        for (unsigned i = 0; i < arity; ++i) {
            const std::optional<Pfn> pfn = pfnOf(asid, first + i);
            out[i] = pfn ? static_cast<Cpfn>(*pfn & 0x3F)
                         : unmappedCode();
        }
    }

    Cpfn unmappedCode() const override { return 0x7F; }

  private:
    std::map<std::pair<Asid, Vpn>, Pfn> pfns_;
};

DesignParams
smallParams()
{
    DesignParams params;
    params.geometry = TlbGeometry{64, 4};
    params.arity = 8;
    return params;
}

std::unique_ptr<TranslationDesign>
make(const std::string &spec)
{
    Result<std::unique_ptr<TranslationDesign>> result =
        makeTranslationDesign(spec, smallParams());
    EXPECT_TRUE(result.ok()) << spec << ": "
                             << result.status().toString();
    return std::move(result.value());
}

/** Expect an InvalidArgument naming the spec and the offender. */
void
expectRejected(const std::string &spec, const std::string &needle)
{
    const Result<std::unique_ptr<TranslationDesign>> result =
        makeTranslationDesign(spec, smallParams());
    ASSERT_FALSE(result.ok()) << spec;
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument)
        << spec;
    EXPECT_NE(result.status().message().find("design spec '" + spec),
              std::string::npos)
        << result.status().message();
    EXPECT_NE(result.status().message().find(needle), std::string::npos)
        << spec << " error should mention '" << needle
        << "': " << result.status().message();
}

} // namespace

TEST(DesignRegistry, EveryKindRoundTrips)
{
    EXPECT_EQ(translationDesignKinds().size(), 7u);
    for (const char *kind : translationDesignKinds()) {
        EXPECT_TRUE(translationDesignKindKnown(kind));
        const auto design = make(kind);
        EXPECT_FALSE(design->name().empty());
        EXPECT_EQ(design->stats().accesses, 0u);
        EXPECT_EQ(design->validEntries(), 0u);
        EXPECT_EQ(design->reachPages(), 0u);
    }
    EXPECT_FALSE(translationDesignKindKnown("virtuoso"));
}

TEST(DesignRegistry, DefaultsFlowFromParams)
{
    DesignParams params = smallParams();
    params.arity = 16;
    const auto design = makeTranslationDesign("mosaic", params);
    ASSERT_TRUE(design.ok());
    EXPECT_EQ(design.value()->name(), "mosaic:arity=16");

    // The parsed spec carries the defaults and every override.
    const Result<DesignSpec> spec =
        parseDesignSpec("stride:base=mosaic,ways=2,degree=3", params);
    ASSERT_TRUE(spec.ok()) << spec.status().toString();
    EXPECT_EQ(spec.value().kind, "stride");
    EXPECT_EQ(spec.value().base, "mosaic");
    EXPECT_EQ(spec.value().geometry.entries, 64u);
    EXPECT_EQ(spec.value().geometry.ways, 2u);
    EXPECT_EQ(spec.value().arity, 16u);
    EXPECT_EQ(spec.value().degree, 3u);
}

TEST(DesignRegistry, WrapperNamesEmbedTheirBase)
{
    EXPECT_EQ(make("stride:base=mosaic,arity=4")->name(),
              "stride:mode=fixed,degree=2,base=[mosaic:arity=4]");
    EXPECT_EQ(make("pwc:l1=32")->name(),
              "pwc:l1=32,l2=8,base=[vanilla]");
    EXPECT_EQ(make("range:ranges=48")->name(),
              "range:ranges=48,maxrun=512");
}

TEST(DesignRegistry, MalformedSpecsNameTheOffender)
{
    expectRejected("virtuoso", "unknown design kind 'virtuoso'");
    expectRejected("", "empty design kind");
    expectRejected("mosaic:bogus=1", "unknown key 'bogus'");
    expectRejected("vanilla:arity=4", "does not apply");
    expectRejected("range:entries=64", "does not apply");
    expectRejected("mosaic:degree=2", "does not apply");
    expectRejected("mosaic:arity", "expected key=value");
    expectRejected("mosaic:arity=", "expected key=value");
    expectRejected("mosaic:arity=3", "power of two");
    expectRejected("vanilla:entries=abc", "not an unsigned integer");
    expectRejected("vanilla:entries=0", "out of range");
    expectRejected("stride:mode=sometimes", "mode must be");
    expectRejected("stride:base=pwc", "wrapper");
    expectRejected("pwc:base=stride", "wrapper");
    expectRejected("stride:base=bogus", "unknown base kind 'bogus'");
    expectRejected("vanilla:entries=4,ways=8", "more ways than entries");
    expectRejected("vanilla:entries=10,ways=4",
                   "entries must divide into sets");
}

TEST(DesignRegistry, FixedStridePrefetchesNextPages)
{
    const auto design =
        make("stride:base=vanilla,mode=fixed,degree=2,entries=16,"
             "ways=16");
    MapWalker walker;
    for (Vpn v = 100; v <= 110; ++v)
        walker.map(1, v, 500 + v);

    EXPECT_FALSE(design->access(1, 100, walker));
    EXPECT_TRUE(design->contains(1, 101));
    EXPECT_TRUE(design->contains(1, 102));
    DesignCounters c = design->counters();
    EXPECT_EQ(c.prefetchesIssued, 2u);
    EXPECT_EQ(c.prefetchFills, 2u);
    // Demand walk + two prefetch walks, 4 levels each.
    EXPECT_EQ(c.walkRefs, 12u);

    // The prefetched page hits without a walk.
    EXPECT_TRUE(design->access(1, 101, walker));
    EXPECT_EQ(design->stats().hits, 1u);
    EXPECT_EQ(design->stats().misses, 1u);
    EXPECT_EQ(design->counters().walkRefs, 12u);

    // Prefetches beyond the mapping are issued but cannot fill.
    EXPECT_FALSE(design->access(1, 110, walker));
    c = design->counters();
    EXPECT_EQ(c.prefetchesIssued, 4u);
    EXPECT_EQ(c.prefetchFills, 2u);
}

TEST(DesignRegistry, ArbitraryStrideNeedsConfirmation)
{
    const auto design =
        make("stride:base=vanilla,mode=arbitrary,degree=1,entries=16,"
             "ways=16");
    MapWalker walker;
    for (const Vpn v : {0, 3, 6, 9})
        walker.map(1, v, 700 + v);

    EXPECT_FALSE(design->access(1, 0, walker));
    EXPECT_FALSE(design->access(1, 3, walker));
    // Two samples only suggest the stride; nothing is issued yet.
    EXPECT_EQ(design->counters().prefetchesIssued, 0u);

    // The third reference confirms stride 3 and prefetches vpn 9.
    EXPECT_FALSE(design->access(1, 6, walker));
    EXPECT_EQ(design->counters().prefetchesIssued, 1u);
    EXPECT_EQ(design->counters().prefetchFills, 1u);
    EXPECT_TRUE(design->access(1, 9, walker));
}

TEST(DesignRegistry, PwcDiscountsSkippedLevels)
{
    const auto design = make("pwc:base=vanilla,entries=16,ways=16");
    MapWalker walker;
    walker.map(1, 0, 10);
    walker.map(1, 1, 11);
    walker.map(1, 2, 12);

    EXPECT_FALSE(design->access(1, 0, walker));
    DesignCounters c = design->counters();
    EXPECT_EQ(c.pwcLookups, 1u);
    EXPECT_EQ(c.pwcHits, 0u);
    EXPECT_EQ(c.walkRefs, 4u);

    // Same depth-3 prefix: the PWC resolves three of four levels.
    EXPECT_FALSE(design->access(1, 1, walker));
    c = design->counters();
    EXPECT_EQ(c.pwcLookups, 2u);
    EXPECT_EQ(c.pwcHits, 1u);
    EXPECT_EQ(c.walkRefs, 5u);

    // flushAsid drops the cached upper levels with the TLB.
    design->flushAsid(1);
    EXPECT_FALSE(design->access(1, 2, walker));
    c = design->counters();
    EXPECT_EQ(c.pwcHits, 1u);
    EXPECT_EQ(c.walkRefs, 9u);
}

TEST(DesignRegistry, RangeMinesContiguityRuns)
{
    const auto design = make("range:ranges=4,maxrun=64");
    MapWalker walker;
    for (Vpn v = 10; v <= 19; ++v)
        walker.map(1, v, 90 + v); // pfns 100..109, fully contiguous

    EXPECT_FALSE(design->access(1, 14, walker));
    for (Vpn v = 10; v <= 19; ++v)
        EXPECT_TRUE(design->contains(1, v)) << v;
    EXPECT_FALSE(design->contains(1, 9));
    EXPECT_FALSE(design->contains(1, 20));
    EXPECT_EQ(design->reachPages(), 10u);
    EXPECT_EQ(design->validEntries(), 1u);
    EXPECT_EQ(design->counters().regionFills, 1u);
    // Anchor walk (4) + 4+1 probes left + 5+1 probes right.
    EXPECT_EQ(design->counters().walkRefs, 15u);

    EXPECT_TRUE(design->access(1, 17, walker));
    EXPECT_EQ(design->stats().hits, 1u);

    // Invalidating any covered page drops the whole run.
    design->invalidatePage(1, 12);
    EXPECT_FALSE(design->contains(1, 17));
    EXPECT_EQ(design->stats().invalidations, 1u);
}

TEST(DesignRegistry, RangeRespectsMaxRun)
{
    const auto design = make("range:ranges=4,maxrun=4");
    MapWalker walker;
    for (Vpn v = 0; v < 16; ++v)
        walker.map(1, v, 1000 + v);

    EXPECT_FALSE(design->access(1, 8, walker));
    EXPECT_EQ(design->reachPages(), 4u);
    EXPECT_TRUE(design->contains(1, 5));
    EXPECT_TRUE(design->contains(1, 8));
    EXPECT_FALSE(design->contains(1, 9));
}
