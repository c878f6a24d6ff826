/**
 * @file
 * The translation-design registry (DESIGN.md §14): build any pluggable
 * design from a config string, so sweep drivers, the bake-off bench,
 * and the fuzzer name designs instead of linking their concrete types.
 *
 * Spec grammar:  kind[:key=value[,key=value]*]
 *
 *   kind      one of vanilla | mosaic | coalesced | perforated |
 *             stride | pwc | range
 *   entries   TLB entries of the base array        (default 1024)
 *   ways      associativity of the base array      (default 8)
 *   arity     mosaic CPFNs per entry, pow2 <= 64   (default 8)
 *   base      wrapped kind for stride/pwc          (default vanilla)
 *   mode      stride mode: fixed | arbitrary       (default fixed)
 *   degree    stride prefetch degree               (default 2)
 *   ranges    range-TLB entries                    (default 32)
 *   maxrun    longest cached run, pages            (default 512)
 *   l1 / l2   PWC level sizes                      (defaults 16 / 8)
 *
 * Examples: "mosaic:arity=16", "stride:base=mosaic,mode=arbitrary",
 * "pwc:base=vanilla,l1=32", "range:ranges=48,maxrun=512".
 *
 * parseDesignSpec turns a spec string into a DesignSpec, and every
 * DesignSpec it returns builds. The fuzzer builds the real design and
 * its reference model from the same parsed DesignSpec.
 *
 * Unknown kinds, unknown or inapplicable keys, and malformed values
 * return InvalidArgument naming the offender — specs come from CLI
 * flags and env knobs, so errors must say what to fix.
 */

#ifndef MOSAIC_TLB_DESIGN_REGISTRY_HH_
#define MOSAIC_TLB_DESIGN_REGISTRY_HH_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "tlb/set_assoc.hh"
#include "tlb/translation_design.hh"
#include "util/status.hh"

namespace mosaic
{

/** Defaults a spec starts from (keys override individually). */
struct DesignParams
{
    TlbGeometry geometry{1024, 8};
    unsigned arity = 8;
};

/** A parsed spec: the kind plus every knob, defaults resolved. Keys
 *  that do not apply to the kind keep their defaults. */
struct DesignSpec
{
    std::string kind;
    TlbGeometry geometry{1024, 8};
    unsigned arity = 8;
    std::string base = "vanilla";
    bool arbitrary = false;
    unsigned degree = 2;
    unsigned ranges = 32;
    std::uint64_t maxRun = 512;
    unsigned l1 = 16;
    unsigned l2 = 8;
};

/** All registered design kinds, in bake-off order. */
std::span<const char *const> translationDesignKinds();

/** Is @p kind one of translationDesignKinds()? */
bool translationDesignKindKnown(const std::string &kind);

/** Parse and validate a spec string (grammar above). */
Result<DesignSpec> parseDesignSpec(const std::string &spec,
                                   const DesignParams &defaults = {});

/** Build a design from a spec parseDesignSpec returned. */
std::unique_ptr<TranslationDesign>
makeTranslationDesign(const DesignSpec &spec);

/** Parse a spec string, then build it. */
Result<std::unique_ptr<TranslationDesign>>
makeTranslationDesign(const std::string &spec,
                      const DesignParams &defaults = {});

} // namespace mosaic

#endif // MOSAIC_TLB_DESIGN_REGISTRY_HH_
